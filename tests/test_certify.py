"""Seeded mutations of valid certificates: ``certify`` accepts each
certificate as built and rejects every mutated one."""

import random
from fractions import Fraction

import pytest

from conedual import INF, ONE, ExtReal, ExtVec
from conedual.extreal import _weighted_sum, as_extvec
from conedual.certify import (
    covered,
    refutes,
    require,
    simplex,
    verify_meets_corner,
    verify_separated,
)

F = Fraction
NUDGE = F(1, 1000)


def _simplex_point(rng, n):
    ints = [rng.randint(1, 9) for _ in range(n)]
    return [F(v, sum(ints)) for v in ints]


def _below_one(rng):
    return F(rng.randint(0, 9), 10)


def test_require_is_the_internal_error():
    require(True, "unused")
    with pytest.raises(AssertionError, match="^internal error: a check failed$"):
        require(False, "a check failed")


def test_simplex_reads_one_extvec_and_refuses_other_points():
    half = F(1, 2)
    point = ExtVec([half, half])
    assert simplex(point) is point
    assert simplex((half, ExtReal(1, 2))) == point
    assert type(simplex([1, 0])) is ExtVec and tuple(simplex([1, 0])) == (F(1), F(0))
    for values in [(), (half,), (F(3, 2), F(-1, 2)), (True, False), (0.5, 0.5), ("1/2", "1/2"),
                   (INF, 0), ExtVec([INF, 0]), ExtVec([half, 1])]:
        assert simplex(values) is None


def test_mutated_separation_weights_are_rejected():
    rng = random.Random(41)
    for _ in range(300):
        dim = rng.randint(2, 6)
        inf_coords = set(rng.sample(range(dim), rng.randint(1, dim - 1)))
        fin = [j for j in range(dim) if j not in inf_coords]
        w = [F(0)] * dim
        for j, v in zip(fin, _simplex_point(rng, len(fin))):
            w[j] = v
        gens = []
        for k in range(rng.randint(1, 4)):
            g = [F(rng.randint(0, 20), rng.randint(1, 5)) for _ in range(dim)]
            total = sum(wj * gj for wj, gj in zip(w, g))
            if total > 1:
                g = [gj / total for gj in g]
            # the first generator is infinite on every coordinate of inf_coords
            gens.append([INF if j in inf_coords and (k == 0 or rng.randrange(2)) else gj
                         for j, gj in enumerate(g)])
        assert verify_separated(gens, w, dim)
        j = rng.choice(fin)
        for delta in (NUDGE, -min(NUDGE, w[j])):
            nudged = list(w)
            nudged[j] += delta
            if delta:
                assert not verify_separated(gens, nudged, dim)
        # the weight of j moved onto a coordinate where a generator is infinite
        moved = list(w)
        moved[rng.choice(sorted(inf_coords))], moved[j] = w[j], F(0)
        assert not verify_separated(gens, moved, dim)


def _oracle_separated(generators, weights, dim):
    """``verify_separated`` as it was, one ``ExtVec.dot`` per generator: the reference."""
    gens = [as_extvec(g) for g in generators]
    vals = simplex(weights)
    if vals is None or any(g.dim != len(vals) or dim not in (None, g.dim) for g in gens):
        return False
    w = ExtVec(vals)
    return all(w.dot(g) <= ONE for g in gens)


def test_separation_verdicts_on_forms_match_the_pairing():
    rng = random.Random(59)
    seen = set()
    for _ in range(1500):
        dim = rng.randint(1, 6)
        w = [F(0)] * dim
        support = rng.sample(range(dim), rng.randint(1, dim))
        for j, v in zip(support, _simplex_point(rng, len(support))):
            w[j] = v
        gens = []
        for _ in range(rng.randint(1, 5)):
            g = [rng.choice((F(0), INF, F(rng.randint(0, 9), rng.randint(1, 9)),
                             F(rng.getrandbits(70), rng.getrandbits(70) | 1)))
                 for _ in range(dim)]
            finite = [(wj, gj) for wj, gj in zip(w, g) if gj is not INF]
            total = sum(wj * gj for wj, gj in finite)
            if total and rng.randrange(2):
                # pairing one exactly or just around it on the finite entries
                scale = total / rng.choice((1, 1 - NUDGE, 1 + NUDGE))
                g = [gj if gj is INF else gj / scale for gj in g]
            gens.append(g)
        want = _oracle_separated(gens, w, dim)
        assert verify_separated(gens, w, dim) is want, (gens, w)
        zero_on_inf = any(gj is INF and wj == 0 for g in gens for wj, gj in zip(w, g))
        weight_on_inf = any(gj is INF and wj > 0 for g in gens for wj, gj in zip(w, g))
        seen.add((want, zero_on_inf, weight_on_inf))
    # accepted with 0 * inf = 0, rejected for a positive weight on inf, and both without inf
    assert {(True, True, False), (False, False, True), (True, False, False), (False, False, False)} <= seen
    assert verify_separated([ExtVec([INF, 0])], [0, 1], 2)
    assert not verify_separated([ExtVec([INF, 0])], [F(1, 2)] * 2, 2)


def _corner_instance(rng):
    """Generators whose diagonal entry alone lifts its coordinate above one
    (``inf`` or more than one over its weight), every other entry below one,
    and the witness weighting each diagonal generator once."""
    dim = rng.randint(1, 5)
    w = _simplex_point(rng, dim)
    gens = []
    for i in range(dim):
        diag = INF if rng.randrange(4) == 0 else 1 / w[i] + F(rng.randint(1, 9), rng.randint(1, 9))
        gens.append([diag if j == i else _below_one(rng) for j in range(dim)])
    # one more generator at least, to move a weight to
    gens += [[_below_one(rng) for _ in range(dim)] for _ in range(rng.randint(dim == 1, 2))]
    order = list(range(len(gens)))
    rng.shuffle(order)
    gens = [gens[i] for i in order]
    witness = [(order.index(i), w[i]) for i in range(dim)]
    return gens, witness


def test_mutated_corner_witnesses_are_rejected():
    rng = random.Random(43)
    for _ in range(300):
        gens, witness = _corner_instance(rng)
        assert verify_meets_corner(gens, witness)
        p = rng.randrange(len(witness))
        j, c = witness[p]
        for delta in (NUDGE, -min(NUDGE, c)):
            nudged = list(witness)
            nudged[p] = (j, c + delta)
            if delta:
                assert not verify_meets_corner(gens, nudged)
        # the weight of generator j moved to another generator: coordinate j
        # is left with entries below one only
        moved = list(witness)
        moved[p] = (rng.choice([q for q in range(len(gens)) if q != j]), c)
        assert not verify_meets_corner(gens, moved)


def _cover_instance(rng):
    """Branches h_k, each largest among the branches on its own coordinate
    k of R, weights lam, and vec equal to sum_k lam_k h_k on R.  A last
    branch of weight 0 is infinite off R, so the cover is finite there
    unless some weighted branch is infinite too, and vec exceeds it."""
    k = rng.randint(2, 4)
    dim = k + rng.randint(0, 2)
    lam = _simplex_point(rng, k) + [F(0)]
    rows = [[_below_one(rng) for _ in range(dim)] for _ in range(k + 1)]
    for i in range(k):
        rows[i][i] = F(rng.randint(2, 9))
    off = set(range(k, dim))
    for j in off:
        rows[k][j] = INF
        if rng.randrange(3) == 0:
            rows[rng.randrange(k)][j] = INF
    vec = []
    for j in range(dim):
        if j in off:
            vec.append(rng.choice([INF, F(rng.randint(100, 200))]))
        else:
            vec.append(sum(lk * r[j] for lk, r in zip(lam, rows)))
    return ExtVec(vec), lam, [ExtVec(r) for r in rows]


def test_mutated_covers_are_rejected():
    rng = random.Random(47)
    exceeded = 0
    for _ in range(300):
        vec, lam, hvecs = _cover_instance(rng)
        # vec exceeds the cover off R only, so it is covered
        assert covered(vec, lam, hvecs)
        cover = _weighted_sum(lam, hvecs, vec.dim)
        exceeded += any(cover[j] < vec[j] for j in range(vec.dim))
        a = rng.randrange(len(lam) - 1)
        nudged = list(lam)
        nudged[a] -= NUDGE
        assert not covered(vec, nudged, hvecs)
        # lam_a moved to another branch, whose entry on coordinate a is smaller
        b = rng.choice([i for i in range(len(lam)) if i != a])
        moved = list(lam)
        moved[b] += moved[a]
        moved[a] = F(0)
        assert not covered(vec, moved, hvecs)
        # an infinite entry of vec on R, where the cover is finite
        lifted = list(vec)
        lifted[a] = INF
        assert not covered(ExtVec(lifted), lam, hvecs)
        # one weight per branch: an extra entry is not ignored, a missing one not read as zero
        assert not covered(vec, list(lam) + [F(rng.randint(0, 9))], hvecs)
        assert not covered(vec, list(lam)[:-1], hvecs)
    assert exceeded > 100
    assert not covered(ExtVec([1, 0]), [1, 0, 7], [ExtVec([1, 0]), ExtVec([0, 1])])
    assert not covered(ExtVec([1, 0]), [1], [ExtVec([1, 0]), ExtVec([0, 1])])


def test_mutated_refutations_are_rejected():
    rng = random.Random(53)
    for _ in range(300):
        dim = rng.randint(3, 5)
        zero, j = rng.sample(range(dim), 2)
        gvecs = [[F(rng.randint(1, 9)) for _ in range(dim)] for _ in range(rng.randint(1, 3))]
        # every entry of a branch is below one, and so below every clause
        # member's, but the first branch's on coordinate j, where y is small
        # enough; every branch is infinite on coordinate zero, where y is 0
        y = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(dim)]
        y[zero] = F(0)
        y[j] = F(1, 80 * (gvecs[0][j] + 1))
        hvecs = []
        for k in range(rng.randint(1, 3)):
            h = [_below_one(rng) for _ in range(dim)]
            if k == 0:
                h[j] = gvecs[0][j] + 1
            h[zero] = INF
            hvecs.append(h)
        gvecs = [ExtVec(g) for g in gvecs]
        hvecs = [ExtVec(h) for h in hvecs]
        assert refutes(ExtVec(y), gvecs, hvecs)
        assert not refutes(ExtVec([0] * dim), gvecs, hvecs)
        # y_j scaled until the first branch meets the first member
        g0, h0 = gvecs[0], hvecs[0]
        gap = g0.dot(ExtVec(y)).as_fraction() - h0.dot(ExtVec(y)).as_fraction()
        scale = 1 + gap / (y[j] * (h0[j].as_fraction() - g0[j].as_fraction()))
        scaled = list(y)
        scaled[j] *= scale
        assert not refutes(ExtVec(scaled), gvecs, hvecs)
        # mass on the coordinate where every branch is infinite
        lifted = list(y)
        lifted[zero] = NUDGE
        assert not refutes(ExtVec(lifted), gvecs, hvecs)
