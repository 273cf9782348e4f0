"""The exact screens that answer order and separation questions before the LP.

Each screen's verdict must be the LP's verdict on the same question, and
its answer goes through the same final check as the LP's answer.
"""

import importlib
import random
from fractions import Fraction

import pytest

from conedual import (
    INF,
    ExtReal,
    ExtVec,
    MeetsCorner,
    Separated,
    separate,
    verify_meets_corner,
    verify_separated,
)

F = Fraction
functionals = importlib.import_module("conedual.functionals")
oracles = importlib.import_module("conedual.oracles")
convex_sep = importlib.import_module("conedual.convex_sep")
certify = importlib.import_module("conedual.certify")


def _spy_screen(monkeypatch, module):
    """Record each answer ``module._screen`` gives, None for a miss."""
    real = module._screen
    seen = []

    def screen(*args):
        found = real(*args)
        seen.append(found)
        return found

    monkeypatch.setattr(module, "_screen", screen)
    return seen


def _rand_vec(rng, dim, inf_rate, top):
    return ExtVec([INF if rng.random() < inf_rate else ExtReal(rng.randint(0, top), rng.randint(1, 3))
                   for _ in range(dim)])


def _spy_margin(monkeypatch):
    """Record the arguments of each ``functionals._margin`` call."""
    real, calls = functionals._margin, []

    def margin(gvecs, hvecs):
        calls.append((gvecs, hvecs))
        return real(gvecs, hvecs)

    monkeypatch.setattr(functionals, "_margin", margin)
    return calls


def _is_segment(found):
    """A screen answer that covers by a mix of two members."""
    return found is not None and found[0] == 0 and sum(w > 0 for w in found[2]) == 2


def _check_segment(found, gvecs, hvecs):
    """The answer's two weights sum to one, and its mix is covered by its branch."""
    _, y, a, lam = found
    assert y is None and sum(a) == 1 and sorted(lam) == [0] * (len(lam) - 1) + [1], found
    mix = functionals._weighted_sum(a, gvecs, gvecs[0].dim)
    assert certify.covered(mix, lam, hvecs), (found, gvecs, hvecs)


def _crossing_pair(rng, dim):
    """Two finite members, each above the other somewhere."""
    while True:
        g = [[ExtReal(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(dim)] for _ in range(2)]
        if any(a > b for a, b in zip(*g)) and any(a < b for a, b in zip(*g)):
            return [ExtVec(v) for v in g]


def test_order_screens_give_the_lps_verdicts(monkeypatch):
    rng = random.Random(4099)
    cases = []
    for _ in range(400):
        dim = rng.randint(1, 4)
        hvecs = [_rand_vec(rng, dim, 0.1, 6) for _ in range(rng.randint(1, 3))]
        if len(hvecs) > 1 and rng.random() < 0.4:
            # the midpoint of two branches, which only a mix covers, or just above it
            mid = hvecs[0].scale(ExtReal(1, 2)) + hvecs[1].scale(ExtReal(1, 2))
            gvecs = [mid + ExtVec([ExtReal(rng.randint(0, 1), 8)] * dim)]
        else:
            gvecs = [_rand_vec(rng, dim, 0.1, 6) for _ in range(rng.randint(1, 3))]
        cases.append((gvecs, hvecs))
    for _ in range(60):
        # a branch at or just above a mix of two members, which no member alone need be below
        dim = rng.randint(2, 4)
        gvecs = [_rand_vec(rng, dim, 0.1, 6) for _ in range(2)]
        n = rng.randint(1, 3)
        mix = gvecs[0].scale(ExtReal(n, 4)) + gvecs[1].scale(ExtReal(4 - n, 4))
        hvecs = [mix + ExtVec([ExtReal(rng.randint(0, 1), 8) for _ in range(dim)])]
        hvecs += [_rand_vec(rng, dim, 0.1, 6) for _ in range(rng.randint(0, 2))]
        rng.shuffle(hvecs)
        cases.append((gvecs + [_rand_vec(rng, dim, 0.1, 6) for _ in range(rng.randint(0, 1))], hvecs))
    seen = _spy_screen(monkeypatch, functionals)
    verdicts = []
    for gvecs, hvecs in cases:
        before = len(seen)
        y = functionals._decide(gvecs, hvecs)[0]
        # a member pair (value 0, one weight), a segment (value 0, two weights), a vertex
        # (value > 0) or a miss; nothing when _decide answers first
        rule = None
        if len(seen) > before:
            found = seen[-1]
            if found is None:
                rule = "miss"
            else:
                rule = "vertex" if found[0] > 0 else "segment" if _is_segment(found) else "pair"
        verdicts.append((y is None, rule))
    monkeypatch.setattr(functionals, "_screen", lambda gvecs, hvecs: None)
    rules = {}
    screened_inf = 0
    for (gvecs, hvecs), (held, rule) in zip(cases, verdicts):
        assert (functionals._decide(gvecs, hvecs)[0] is None) == held, (gvecs, hvecs, rule)
        rules[rule, held] = rules.get((rule, held), 0) + 1
        screened_inf += rule in ("pair", "segment", "vertex") and any(v._form[2] for v in gvecs + hvecs)
    # the pair and segment screens answer only a held order and the vertex screen only a failed one
    answered = {("pair", True), ("segment", True), ("vertex", False)}
    assert {key for key in rules if key[0] in ("pair", "segment", "vertex")} == answered
    assert min(rules[key] for key in answered) >= 10, rules
    assert min(rules.get(("miss", True), 0), rules.get(("miss", False), 0)) >= 10, rules
    # the screens also answer on what is left once _decide has cut the inf entries
    assert screened_inf >= 10, screened_inf


def test_a_branch_above_a_two_member_mix_reaches_no_margin_lp(monkeypatch):
    rng = random.Random(20011)
    calls = _spy_margin(monkeypatch)
    seen = _spy_screen(monkeypatch, functionals)
    segments = with_inf = 0
    for _ in range(150):
        dim = rng.randint(2, 5)
        gvecs = _crossing_pair(rng, dim)
        n = rng.randint(1, 5)
        mix = gvecs[0].scale(ExtReal(n, 6)) + gvecs[1].scale(ExtReal(6 - n, 6))
        # a bump that is zero on at least one coordinate
        bump = [ExtReal(rng.randint(0, 2), 5) for _ in range(dim)]
        bump[rng.randrange(dim)] = ExtReal(0)
        hvecs = [mix + ExtVec(bump)] + [_rand_vec(rng, dim, 0, 4) for _ in range(rng.randint(0, 2))]
        gvecs += [_rand_vec(rng, dim, 0, 9) for _ in range(rng.randint(0, 2))]
        rng.shuffle(gvecs)
        rng.shuffle(hvecs)
        if rng.randrange(3) == 0:
            # and a coordinate off R, infinite at a branch, which _decide cuts
            hvecs = [ExtVec(list(h) + [ExtReal(rng.randint(0, 3))]) for h in hvecs]
            r = rng.randrange(len(hvecs))
            hvecs[r] = ExtVec(list(hvecs[r])[:-1] + [INF])
            gvecs = [ExtVec(list(g) + [rng.choice((INF, ExtReal(rng.randint(0, 9))))]) for g in gvecs]
            with_inf += 1
        before = len(seen)
        y, a, lam, mix = functionals._decide(gvecs, hvecs)
        assert y is None and certify.covered(mix, lam, hvecs), (gvecs, hvecs)
        assert len(seen) == before + 1 and seen[-1] is not None, (gvecs, hvecs)
        segments += _is_segment(seen[-1])
    assert not calls, calls[:1]
    # most are answered by the segment screen, the rest by a member below a branch
    assert segments >= 100 and with_inf >= 30, (segments, with_inf)


def test_segment_answers_keep_the_oracles_verdict_with_inf_entries(monkeypatch):
    rng = random.Random(30011)
    real, seen = functionals._screen, []

    def screen(gvecs, hvecs):
        seen.append((real(gvecs, hvecs), gvecs, hvecs))
        return seen[-1][0]

    monkeypatch.setattr(functionals, "_screen", screen)
    tally = {}
    for _ in range(400):
        dim = rng.randint(1, 4)
        # few enough rows for the oracle, which solves every vertex system
        gvecs = [_rand_vec(rng, dim, 0.15, 6) for _ in range(rng.randint(2, 3))]
        if dim > 1 and rng.randrange(3):
            # a branch near a mix of two crossing members, mostly at or above it
            gvecs[:2] = [ExtVec([INF if rng.random() < 0.15 else e for e in g]) for g in _crossing_pair(rng, dim)]
            n = rng.randint(1, 3)
            mix = gvecs[0].scale(ExtReal(n, 4)) + gvecs[1].scale(ExtReal(4 - n, 4))
            scale = ExtReal(rng.choice((7, 8, 8, 9, 10)), 8)
            hvecs = [ExtVec([e * scale for e in mix])]
        else:
            hvecs = [_rand_vec(rng, dim, 0.15, 6)]
        hvecs += [_rand_vec(rng, dim, 0.15, 6) for _ in range(rng.randint(0, 1))]
        before = len(seen)
        y, _, lam, mix = functionals._decide(gvecs, hvecs)
        held = y is None
        assert held == oracles.order_holds(gvecs, hvecs), (gvecs, hvecs)
        found, screened = (seen[-1][0], seen[-1][1:]) if len(seen) > before else (None, None)
        if _is_segment(found):
            assert held
            # the cover on what _decide screened, and on the full vectors as _decide checks it
            _check_segment(found, *screened)
            assert certify.covered(mix, lam, hvecs)
            key = "segment", any(v._form[2] for v in gvecs + hvecs)
        else:
            key = held, None
        tally[key] = tally.get(key, 0) + 1
    assert min(tally.get(("segment", False), 0), tally.get(("segment", True), 0)) >= 10, tally
    assert min(tally.get((True, None), 0), tally.get((False, None), 0)) >= 50, tally


@pytest.mark.parametrize(
    "gvecs, hvecs, weights",
    [
        # t <= 1/2 at the first coordinate and t >= 1/2 at the second: the one point 1/2
        ([[2, 0], [0, 2]], [[1, 1]], (F(1, 2), F(1, 2))),
        # t <= 1/3 and t >= 1/3, with both members equal to the branch at the last coordinate
        ([[3, 0, 1], [0, 3, 1]], [[1, 2, 1]], (F(1, 3), F(2, 3))),
        # t in [1/4, 3/4], both equal to the branch at the last coordinate: t = lo = 1/4
        ([[2, 0, 5], [0, 2, 5]], [[F(3, 2), F(3, 2), 5]], (F(1, 4), F(3, 4))),
        # a member that covers nothing comes first, and the second branch is the one
        ([[9, 9], [2, 0], [0, 2]], [[0, 0], [1, 1]], (0, F(1, 2), F(1, 2))),
    ],
    ids=["single_point", "single_point_and_equal_coordinate", "equal_coordinate", "later_pair_and_branch"],
)
def test_segment_screen_edge_cases(gvecs, hvecs, weights):
    gvecs, hvecs = [ExtVec(g) for g in gvecs], [ExtVec(h) for h in hvecs]
    found = functionals._screen(gvecs, hvecs)
    assert _is_segment(found), found
    assert found[2] == ExtVec(weights)
    assert found[3] == ExtVec([int(k == len(hvecs) - 1) for k in range(len(hvecs))])
    _check_segment(found, gvecs, hvecs)


def test_an_empty_segment_interval_is_left_to_the_margin_lp(monkeypatch):
    # t <= 9/20 and t >= 11/20: the masks cover both coordinates, but no t does,
    # and the LP refutes the order at y = (1/2, 1/2)
    gvecs, hvecs = [ExtVec([2, 0]), ExtVec([0, 2])], [ExtVec([F(9, 10), F(9, 10)])]
    assert functionals._screen(gvecs, hvecs) is None
    calls = _spy_margin(monkeypatch)
    y = functionals._decide(gvecs, hvecs)[0]
    assert len(calls) == 1 and y == ExtVec([F(1, 2), F(1, 2)])


def test_a_planted_three_member_mix_reaches_the_margin_lp(monkeypatch):
    # g_k = e_k / lam_k, so sum_k lam_k g_k = (1, 1, 1) is the branch, while a mix of
    # two members needs t <= lam_i and t >= 1 - lam_i' at once
    rng = random.Random(40009)
    calls = _spy_margin(monkeypatch)
    for _ in range(20):
        cut = sorted(rng.sample(range(1, 12), 2))
        lam = [F(cut[0], 12), F(cut[1] - cut[0], 12), F(12 - cut[1], 12)]
        gvecs = [ExtVec([1 / lam[k] if j == k else 0 for j in range(3)]) for k in range(3)]
        hvecs = [ExtVec([1, 1, 1])]
        assert functionals._screen(gvecs, hvecs) is None
        before = len(calls)
        y, a, lam_out, mix = functionals._decide(gvecs, hvecs)
        assert len(calls) == before + 1
        assert y is None and oracles.order_holds(gvecs, hvecs)
        # the only cover is the planted mix itself
        assert a == ExtVec(lam) and lam_out == ExtVec([1]) and mix == ExtVec([1, 1, 1])
        assert certify.covered(mix, lam_out, hvecs)


def test_separation_screens_give_the_lps_verdicts(monkeypatch):
    rng = random.Random(8191)
    cases = []
    for _ in range(300):
        dim = rng.randint(1, 6)
        if dim > 1 and rng.random() < 0.4:
            # one large entry per generator, each coordinate large somewhere:
            # no e_k separates, so fictitious play or the LP answers
            gens = []
            for j in range(rng.randint(dim, dim + 3)):
                g = [ExtReal(rng.choice((0, 0, 1)), rng.randint(2, 4)) for _ in range(dim)]
                g[j % dim] = ExtReal(rng.randint(2, dim))
                gens.append(g)
            if rng.randrange(2):
                # and a last coordinate, large but infinite at one generator, so dropped
                for g in gens:
                    g.append(ExtReal(rng.randint(0, 9)))
                rng.choice(gens)[-1] = INF
                dim += 1
            gens = [ExtVec(g) for g in gens]
        else:
            top = rng.choice((2, 3, 4))
            gens = [_rand_vec(rng, dim, 0.05, top) for _ in range(rng.randint(1, 8))]
        cases.append((gens, dim))
    for _ in range(60):
        # hulls that meet the corner only near a planted mix, which fictitious
        # play may not reach within its cap: each generator is large at one
        # coordinate, and the mix lam / sum(lam) is just above one there
        dim = rng.randint(2, 3)
        lam = [rng.randint(1, 5) for _ in range(dim)]
        gens = []
        for k in range(dim):
            g = [ExtReal(0)] * dim
            g[k] = ExtReal(F(sum(lam), lam[k]) * (1 + F(1, rng.randint(20, 200))))
            gens.append(g)
        if rng.randrange(2):
            # and a last coordinate that only one more generator, infinite there, covers
            for g in gens:
                g.append(ExtReal(rng.randint(0, 2)))
            gens.append([ExtReal(0)] * dim + [INF])
            dim += 1
        cases.append(([ExtVec(g) for g in gens], dim))
    seen = _spy_screen(monkeypatch, convex_sep)
    real_play, played = convex_sep._play, []

    def play(*args):
        found = real_play(*args)
        played.append(found)
        return found

    monkeypatch.setattr(convex_sep, "_play", play)
    verdicts = []
    for gens, dim in cases:
        before, played_before = len(seen), len(played)
        out = separate(gens, dim)
        rule = None
        if len(seen) > before:
            found = seen[-1]
            if found is None:
                rule = "miss"
            elif len(played) > played_before and found is played[-1]:
                # fictitious play, the last screen, with either outcome
                rule = "play"
            else:
                # the weights e_k, the only screen before fictitious play
                assert type(found) is Separated and sum(w > 0 for w in found.weights) == 1, found
                rule = "e_k"
        verdicts.append((type(out), rule))
    monkeypatch.setattr(convex_sep, "_screen", lambda gens, dim, fin: None)
    rules = {}
    for (gens, dim), (kind, rule) in zip(cases, verdicts):
        assert type(separate(gens, dim)) is kind, (gens, rule)
        rules[rule, kind] = rules.get((rule, kind), 0) + 1
        if any(g._form[2] for g in gens):
            rules[rule, kind, "inf"] = rules.get((rule, kind, "inf"), 0) + 1
    answered = (("e_k", Separated), ("play", MeetsCorner), ("play", Separated))
    assert {key[:2] for key in rules if key[0] in ("e_k", "play")} == set(answered)
    assert min(rules[key] for key in answered) >= 5, rules
    assert min(rules.get(("miss", Separated), 0), rules.get(("miss", MeetsCorner), 0)) >= 5, rules
    # every screen also answers once separate has dropped the inf coordinates
    assert min(rules.get((*key, "inf"), 0) for key in answered) >= 3, rules


def _frac(rng, lo, hi):
    """A ratio p/q with lo * q < p <= hi * q, q in 1..3."""
    q = rng.randint(1, 3)
    return ExtReal(rng.randint(lo * q + 1, hi * q), q)


def _tiny(rng):
    return ExtReal(rng.randint(0, 1), rng.randint(3, 6))


def _with_inf_coordinate(rng, gens):
    """The generators with one more coordinate, infinite at one of them, so
    that separate drops it."""
    gens = [g + [ExtReal(rng.randint(0, 2))] for g in gens]
    rng.choice(gens)[-1] = INF
    return gens


def _finite(gens, dim):
    return [i for i in range(dim) if all(g[i].is_finite for g in gens)]


def _by_uniform_pairing(gens, fin):
    # by the sum of the finite coordinates, largest first, ties by index
    return sorted(range(len(gens)), key=lambda j: -sum(gens[j][i].as_fraction() for i in fin))


def _corner_behind(rng):
    """A hull with a generator in the corner and a larger sum at a generator
    that is not: fictitious play does not start in the corner."""
    dim = rng.randint(1, 3)
    gens = [[_frac(rng, 1, 3) for _ in range(dim)]]
    big = [_tiny(rng) for _ in range(dim)]
    big[rng.randrange(dim)] = ExtReal(rng.randint(3 * dim + 1, 4 * dim + 4))
    gens.append(big)
    gens += [[_frac(rng, 0, 2) for _ in range(dim)] for _ in range(rng.randint(0, 3))]
    rng.shuffle(gens)
    if dim < 3 and rng.randrange(2):
        gens, dim = _with_inf_coordinate(rng, gens), dim + 1
    gens = [ExtVec(g) for g in gens]
    fin = _finite(gens, dim)
    lead = gens[_by_uniform_pairing(gens, fin)[0]]
    if not fin or all(e > 1 for e in lead) or not any(all(e > 1 for e in g) for g in gens):
        return None
    return gens, dim


def _uniform_separates(rng):
    """A hull that the uniform weights on the finite coordinates separate,
    while each finite coordinate is above one at some generator, so no e_k
    does."""
    dim = rng.randint(2, 3)
    gens = []
    for j in range(rng.randint(dim, dim + 3)):
        g = [_tiny(rng) for _ in range(dim)]
        g[j % dim] = _frac(rng, 1, dim)
        gens.append(g)
    if dim < 3 and rng.randrange(2):
        gens, dim = _with_inf_coordinate(rng, gens), dim + 1
    gens = [ExtVec(g) for g in gens]
    fin = _finite(gens, dim)
    if any(sum(g[i].as_fraction() for i in fin) > len(fin) for g in gens):
        return None
    if any(all(g[i] <= 1 for g in gens) for i in fin):
        return None
    return gens, dim


def _prefix_meets(rng):
    """A hull where, for some r >= 2, the uniform mix of the first r
    generators by the sum of their finite coordinates lies in the corner."""
    dim = rng.randint(2, 3)
    gens = []
    for k in range(dim):
        g = [_tiny(rng) for _ in range(dim)]
        g[k] = _frac(rng, dim, 2 * dim)
        gens.append(g)
    gens += [[_frac(rng, 0, 1) for _ in range(dim)] for _ in range(rng.randint(0, 3))]
    rng.shuffle(gens)
    if dim < 3 and rng.randrange(2):
        gens, dim = _with_inf_coordinate(rng, gens), dim + 1
    gens = [ExtVec(g) for g in gens]
    order = _by_uniform_pairing(gens, _finite(gens, dim))
    for r in range(1, len(gens) + 1):
        mix = [sum((gens[j][i] for j in order[:r]), ExtReal(0)) for i in range(dim)]
        if all(p > r for p in mix):
            return (gens, dim) if r >= 2 else None
    return None


def test_hulls_the_dropped_screens_answered_reach_no_lp(monkeypatch):
    # three kinds of hull with a cheap exact answer, a generator in the corner,
    # the uniform weights and the uniform mix of a prefix by uniform pairing:
    # fictitious play answers each before any LP
    rng = random.Random(12289)
    solved = []
    real = convex_sep.solve_lp

    def solve(problem):
        solved.append(problem)
        return real(problem)

    monkeypatch.setattr(convex_sep, "solve_lp", solve)
    for family, kind in ((_corner_behind, MeetsCorner), (_uniform_separates, Separated),
                         (_prefix_meets, MeetsCorner)):
        hulls = with_inf = 0
        while hulls < 60:
            case = family(rng)
            if case is None:
                continue
            gens, dim = case
            hulls += 1
            with_inf += len(_finite(gens, dim)) < dim
            out = separate(gens, dim)
            assert not solved, (family.__name__, gens)
            assert type(out) is kind, (family.__name__, gens, out)
            assert (kind is MeetsCorner) == oracles.hull_meets_corner(gens, dim), (family.__name__, gens)
        assert with_inf >= 10, (family.__name__, with_inf)


@pytest.mark.parametrize(
    "answer",
    [
        # weights e_1, which pair the generator (2, 0) to 2
        Separated((1, 0)),
        # the generator (2, 0) alone, which is not in the corner
        MeetsCorner(((0, F(1)),)),
    ],
    ids=["weights_above_one", "witness_outside_the_corner"],
)
def test_one_checker_rejects_a_wrong_separation_screen_answer(monkeypatch, answer):
    monkeypatch.setattr(convex_sep, "_screen", lambda gens, dim, fin: answer)
    with pytest.raises(AssertionError):
        separate([ExtVec([2, 0]), ExtVec([0, 2])], 2)


def _reference_play(gens, fin):
    """Fictitious play in ``Fraction``s, one step at a time: ``("meets",
    counts)`` or ``("separated", q, r)``, else None at the cap."""
    rows = [[g[i].as_fraction() for i in fin] for g in gens]
    n, k = len(rows), len(fin)
    counts, q = [0] * n, [0] * k
    uniform = [sum(row) for row in rows]
    pick = uniform.index(max(uniform))
    for r in range(1, 4 * (n + k) + 1):
        counts[pick] += 1
        mix = [sum(counts[j] * rows[j][c] for j in range(n)) / r for c in range(k)]
        if min(mix) > 1:
            return "meets", counts
        q[mix.index(min(mix))] += 1
        pairing = [sum(q[c] * rows[j][c] for c in range(k)) / r for j in range(n)]
        if max(pairing) <= 1:
            return "separated", q, r
        pick = pairing.index(max(pairing))
    return None


def test_fictitious_play_answers_are_the_reference_play_and_the_oracles_verdict():
    rng = random.Random(5077)
    kinds = {}
    for _ in range(500):
        dim = rng.randint(1, 3)
        gens = [_rand_vec(rng, dim, 0.1, rng.choice((2, 3, 4))) for _ in range(rng.randint(1, 6))]
        fin = [i for i in range(dim) if not any(g._form[2] >> i & 1 for g in gens)]
        if not fin:
            continue
        found = convex_sep._play(gens, [g._form for g in gens], dim, fin)
        expected = _reference_play(gens, fin)
        if found is None:
            assert expected is None, (gens, expected)
            continue
        if type(found) is MeetsCorner:
            assert expected[0] == "meets", (gens, found, expected)
            inf_coords = [i for i in range(dim) if i not in fin]
            if inf_coords:
                # the finite mix with a slice of a mix that covers the infinite coordinates
                assert found.witness == convex_sep._witness_from_certificate(gens, fin, inf_coords, expected[1])
            else:
                r = sum(expected[1])
                assert found.witness == tuple((j, F(c, r)) for j, c in enumerate(expected[1]) if c)
            assert verify_meets_corner(gens, found.witness), (gens, found)
        else:
            assert expected[0] == "separated", (gens, found, expected)
            _, q, r = expected
            weights = [0] * dim
            for pos, i in enumerate(fin):
                weights[i] = F(q[pos], r)
            assert found.weights == ExtVec(weights)
            assert verify_separated(gens, found.weights, dim), (gens, found)
        assert (type(found) is MeetsCorner) == oracles.hull_meets_corner(gens, dim), (gens, found)
        key = type(found), len(fin) < dim
        kinds[key] = kinds.get(key, 0) + 1
    # both outcomes, each also once separate has dropped an infinite coordinate
    assert len(kinds) == 4 and min(kinds.values()) >= 10, kinds


def test_a_hull_that_fictitious_play_leaves_is_answered_by_the_lp(monkeypatch):
    # the first of a seeded family of hulls at the boundary that every screen leaves:
    # each generator is large at one coordinate, so the mix lam / sum(lam) is just
    # above one there, and only weights near it reach the corner
    rng = random.Random(40961)
    for _ in range(50):
        dim = rng.randint(2, 4)
        lam = [rng.randint(1, 5) for _ in range(dim)]
        gens = [ExtVec([F(sum(lam), lam[k]) * (1 + F(1, rng.randint(20, 200))) if i == k else 0
                        for i in range(dim)]) for k in range(dim)]
        fin = list(range(dim))
        if convex_sep._screen(gens, dim, fin) is None:
            break
    else:
        raise AssertionError("no hull of the family reached the LP")
    assert convex_sep._play(gens, [g._form for g in gens], dim, fin) is None
    real, solved = convex_sep.solve_lp, []

    def solve(problem):
        solved.append(problem)
        return real(problem)

    monkeypatch.setattr(convex_sep, "solve_lp", solve)
    out = separate(gens, dim)
    assert solved
    assert type(out) is MeetsCorner and oracles.hull_meets_corner(gens, dim)
    assert verify_meets_corner(gens, out.witness)


def test_uniform_weights_that_pair_a_generator_at_one_are_left_to_one_lp(monkeypatch):
    # the uniform weights (1/3, 1/3, 1/3) separate, pairing (2, 1/2, 1/2), (0, 3, 0)
    # and (0, 0, 3) at exactly one, and no e_k does; fictitious play nears that
    # value only in the limit, so it stops at its cap and one LP answers
    gens = [ExtVec(v) for v in [(2, F(1, 2), F(1, 2)), (F(1, 3), 2, 0), (F(1, 3), F(1, 3), 2),
                                (2, F(1, 3), F(1, 2)), (0, 3, 0), (0, 0, 3)]]
    fin = [0, 1, 2]
    assert convex_sep._screen(gens, 3, fin) is None
    assert convex_sep._play(gens, [g._form for g in gens], 3, fin) is None
    real, solved = convex_sep.solve_lp, []

    def solve(problem):
        solved.append(problem)
        return real(problem)

    monkeypatch.setattr(convex_sep, "solve_lp", solve)
    out = separate(gens, 3)
    assert len(solved) == 1
    assert type(out) is Separated and out.weights == ExtVec([F(1, 3)] * 3)
    assert verify_separated(gens, out.weights, 3)
    assert not oracles.hull_meets_corner(gens, 3)
