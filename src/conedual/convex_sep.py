"""Separation of finitely generated convex subsets of the extended orthant
from the open corner (all coordinates strictly above one).

Two exact screens run first: the weights e_k, then a capped run of exact
fictitious play, whose running averages give either certificate.  Then LP
rounds run on a growing subset of the generators.  Each round maximises the
weights' sum from the origin: an optimum of one gives simplex weights whose
pairing with every generator in the round stays at or below one, and an
optimum below one gives, from its dual, an explicit convex combination of
generators that lands inside the corner.  Certificates are re-verified
against every generator with the checks of ``certify`` before being
returned.
"""

from __future__ import annotations

from math import lcm
from operator import add, mul

from ._record import Record
from .certify import combination_point, require, simplex, verify_meets_corner, verify_separated
from .errors import DimensionMismatch, EmptyList
from .extreal import ONE, ExtReal, ExtVec, _over, as_extvec
from .lp import LPProblem, solve_lp


class Separated(Record):
    """The hull misses the corner; ``weights``, a point of the standard simplex,
    is kept as the ``ExtVec`` that ``certify.simplex`` makes of it."""

    weights: ExtVec

    def __post_init__(self):
        weights = simplex(self.weights)
        if weights is None:
            raise ValueError("weights must be nonnegative ints, Fractions or ExtReals and must sum to one")
        object.__setattr__(self, "weights", weights)


class MeetsCorner(Record):
    """The hull meets the corner; witness pairs (generator index, weight)."""

    witness: tuple


def _check_generators(generators, dim):
    gens = [as_extvec(g) for g in generators]
    if not gens:
        raise EmptyList("at least one generator is required")
    if type(dim) is not int or dim < 1:
        raise DimensionMismatch("dimension must be a positive integer")
    for k, g in enumerate(gens):
        if g.dim != dim:
            raise DimensionMismatch(f"generator {k} has dimension {g.dim}, expected {dim}")
    return gens


def separate(generators, dim: int):
    """Separate the convex hull of the generators from the open corner.

    Weights at coordinates where some generator is infinite are forced to
    zero (a positive weight there would push the pairing to infinity).  On
    the remaining coordinates the two screens of ``_screen`` run first, the
    weights e_k and fictitious play, then, when both find nothing, exact LP
    rounds on a growing subset of the generators (``_separation_lp``).  A
    round whose optimum is below one means the hull meets the corner, and
    its dual is turned into an explicit witness combination.  Every answer is checked against all
    generators the same way, whichever path found it.
    """
    gens = _check_generators(generators, dim)
    inf_mask = 0
    for g in gens:
        inf_mask |= g._form[2]
    inf_coords = [i for i in range(dim) if inf_mask >> i & 1]
    fin = [i for i in range(dim) if not inf_mask >> i & 1]

    if not fin:
        found = MeetsCorner(_cover_witness(gens, inf_coords))
    else:
        found = _screen(gens, dim, fin)
        if found is None:
            found = _separation_lp(gens, dim, fin, inf_coords)
    if type(found) is Separated:
        require(verify_separated(gens, found.weights, dim), "separation weights failed verification")
    else:
        require(verify_meets_corner(gens, found.witness), "corner witness failed verification")
    return found


def _screen(gens, dim, fin):
    """``separate``'s answer where one of two exact screens finds it, else
    None.

    A finite coordinate k where every generator is at most one is
    separated by the weights e_k; each compare is on integers and stops at
    the first generator above one.  Where no e_k separates, capped exact
    fictitious play between the generators and the finite coordinates
    (``_play``) looks for either certificate.
    """
    # (numerators over d, d, infinity mask, nonzero mask)
    forms = [g._form for g in gens]
    for k in fin:
        if all(nums[k] <= d for nums, d, _, _ in forms):
            return Separated(_over((1,), 1, (k,), dim))
    return _play(gens, forms, dim, fin)


def _play(gens, forms, dim, fin):
    """Fictitious play (Brown 1951; Robinson 1951) between the generators
    and the finite coordinates, in exact integers: a corner witness or
    separating weights once one side's running average certifies it, else
    None after ``4 * (len(gens) + len(fin))`` steps.

    Each generator's row on the finite coordinates is put over the lcm
    ``L`` of the denominators.  The generator player starts at the largest
    uniform pairing, first by index (the first LP round's first pick in
    ``_separation_lp``), and adds each pick to a running sum ``S``; after
    ``r`` picks, ``min(S) > r * L`` makes the mix ``counts / r`` a point
    above one at every finite coordinate.  The coordinate player answers
    with one more unit ``q`` at the first least coordinate of ``S``; once every generator's score ``q . row`` is at most
    ``r * L``, the weights ``q / r`` pair every generator to at most one.
    Otherwise the generator of best score, first by index, is the next pick.
    """
    n, k = len(forms), len(fin)
    common = lcm(*(form[1] for form in forms))
    rows = [[common // d * nums[i] for i in fin] for nums, d, _, _ in forms]
    # column c of the rows: every generator's entry at the c-th finite coordinate
    cols = list(zip(*rows))
    counts = [0] * n
    scores = [0] * n
    q = [0] * k
    total = [0] * k
    pick = max(range(n), key=lambda j: sum(rows[j]))
    for r in range(1, 4 * (n + k) + 1):
        counts[pick] += 1
        total = list(map(add, total, rows[pick]))
        bar = r * common
        low = min(total)
        if low > bar:
            inf_coords = [i for i in range(dim) if i not in fin]
            return MeetsCorner(_witness_from_certificate(gens, fin, inf_coords, counts))
        worst = total.index(low)
        q[worst] += 1
        scores = list(map(add, scores, cols[worst]))
        best = max(scores)
        if best <= bar:
            return Separated(_over(q, r, fin, dim))
        pick = scores.index(best)
    return None


def _separation_lp(gens, dim, fin, inf_coords):
    """LP rounds on a growing subset ``S`` of the generators, over the finite
    coordinates: maximise ``sum w`` over ``w >= 0`` with ``sum w <= 1`` and
    ``w . g_j <= 1`` for every j in ``S``.  The origin is feasible, so the
    LP needs no phase 1.  An optimum of one is weights in the simplex.  An
    optimum below one has a dual ``(y0, mu)`` with ``y0 + sum_j mu_j g_j[k]
    >= 1`` at every finite coordinate k and ``y0 + sum_j mu_j < 1``, so the
    combination ``mu / sum mu`` is above one at each k: the corner witness on
    ``S``.

    ``S`` starts as the ``len(fin)`` generators of largest uniform pairing,
    ``sum(nums) / d`` on the finite coordinates, compared as integers over
    the lcm of the denominators, ties by index.  A hull meets the corner as
    soon as the hull of a subset does, so a certificate on ``S`` holds for
    all generators, with multiplier zero outside ``S``.  Weights are the
    answer once they pass every generator outside ``S``; until then the
    ``max(1, len(fin) // 2)`` most violated generators join ``S`` and the LP
    is solved again from scratch (delayed constraint generation: Kelley
    1960; Bertsimas & Tsitsiklis 1997, ch. 6).
    """
    k = len(fin)
    forms = [g._form for g in gens]
    dens = [form[1] for form in forms]
    rows = [nums if k == dim else tuple(nums[i] for i in fin) for nums, _, _, _ in forms]
    common = lcm(*dens)
    ranked = sorted(range(len(gens)), key=lambda j: sum(rows[j]) * (common // dens[j]), reverse=True)
    subset = sorted(ranked[:k])
    grow = max(1, k // 2)
    simplex_row = (1,) * (k + 1)
    while True:
        constraints = [simplex_row]
        constraints += [rows[j] + (dens[j],) for j in subset]
        res = solve_lp(LPProblem(k, constraints, (1,) * k))

        if res.vn < res.d:
            # row j, w . nums_j <= d_j, is d_j times the pairing row w . g_j <= 1;
            # the multipliers stay over the dual's denominator, which the
            # witness normalises away
            w = [0] * len(gens)
            for j, v in zip(subset, res.yn[1:]):
                w[j] = v * dens[j]
            return MeetsCorner(_witness_from_certificate(gens, fin, inf_coords, w))

        inside = set(subset)
        outside = [j for j in range(len(gens)) if j not in inside]
        violated = _violated(rows, dens, outside, res.xn, res.d)
        if not violated:
            return Separated(_over(res.xn, res.d, fin, dim))
        subset = sorted(subset + violated[:grow])


def _violated(rows, dens, outside, xn, xd):
    """The generators of ``outside`` that the weights ``xn / xd`` pair above
    one, ``xn . nums_j > d_j * xd`` on the integer forms, most violated
    first: ranked by ``xn . nums_j / (d_j * xd)``, ties by index."""
    found = []
    for j in outside:
        lhs = sum(map(mul, xn, rows[j]))
        if lhs > dens[j] * xd:
            found.append((lhs, j))
    # xd is common, so lhs / d_j ranks them, compared over the lcm of the d_j
    common = lcm(*(dens[j] for _, j in found))
    found.sort(key=lambda item: item[0] * (common // dens[item[1]]), reverse=True)
    return [j for _, j in found]


def _cover_witness(gens, inf_coords):
    """Uniform combination of generators covering every infinite coordinate."""
    cover = sorted({next(j for j, g in enumerate(gens) if g._form[2] >> i & 1) for i in inf_coords})
    share = ExtReal(1, len(cover))
    return tuple((j, share) for j in cover)


def _witness_from_certificate(gens, fin, inf_coords, w):
    """Build a hull point in the corner from the dual of a round whose
    optimum is below one.

    The multipliers of the pairing rows (``w``), normalised, give a
    convex combination whose finite coordinates all exceed one.  If some
    coordinates were eliminated as infinite, a small slice of an
    infinity-covering combination is mixed in without dropping any finite
    coordinate back to one.
    """
    total = sum(w)
    base = {j: ExtReal(wj, total) for j, wj in enumerate(w) if wj > 0}

    if not inf_coords:
        return tuple(sorted(base.items()))

    cover = _cover_witness(gens, inf_coords)
    xn, xd, _, _ = combination_point(gens, base.items())._form
    yn, yd, _, _ = combination_point(gens, cover)._form
    eps = ExtReal(1, 2)
    for i in fin:
        # where y < x, keep (1 - eps) x + eps y above one: x = xn[i] / xd, y = yn[i] / yd
        gap = xn[i] * yd - yn[i] * xd
        if gap > 0:
            eps = min(eps, ExtReal(yd * (xn[i] - xd), 2 * gap))
    combo = {j: mu * (ONE - eps) for j, mu in base.items()}
    for j, share in cover:
        combo[j] = combo.get(j, 0) + eps * share
    return tuple(sorted((j, v) for j, v in combo.items() if v > 0))
