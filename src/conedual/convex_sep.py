"""Separation of finitely generated convex subsets of the extended orthant
from the open corner (all coordinates strictly above one).

Either outcome comes with an exact certificate: simplex weights whose
pairing with every generator stays at or below one, or an explicit convex
combination of generators that lands inside the corner.  Certificates are
re-verified here with extended-real arithmetic before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, EmptyList
from .extreal import ONE, ZERO, ExtReal, ExtVec, as_extvec
from .lp import Constraint, EQ, LEQ, LPInfeasible, LPOptimal, LPProblem, solve_lp


def in_corner(x: ExtVec) -> bool:
    """True iff every coordinate strictly exceeds one (infinity counts)."""
    return all(ONE < e for e in as_extvec(x))


@dataclass(frozen=True)
class SeparationWeights:
    """A point of the standard simplex: nonnegative rationals summing to one."""

    values: tuple

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(v < 0 for v in vals):
            raise ValueError("weights must be nonnegative")
        if sum(vals) != 1:
            raise ValueError("weights must sum to one exactly")

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class Separated:
    weights: SeparationWeights


@dataclass(frozen=True)
class MeetsCorner:
    """The hull meets the corner; witness pairs (generator index, weight)."""

    witness: tuple


def _check_generators(generators, dim):
    gens = [as_extvec(g) for g in generators]
    if not gens:
        raise EmptyList("at least one generator is required")
    if not isinstance(dim, int) or dim < 1:
        raise DimensionMismatch("dimension must be a positive integer")
    for k, g in enumerate(gens):
        if g.dim != dim:
            raise DimensionMismatch(f"generator {k} has dimension {g.dim}, expected {dim}")
    return gens


def separate(generators, dim: int):
    """Separate the convex hull of the generators from the open corner.

    Weights at coordinates where some generator is infinite are forced to
    zero (a positive weight there would push the pairing to infinity), and
    an exact LP runs on the remaining coordinates.  Infeasibility of that
    LP means the hull meets the corner, and the Farkas certificate is
    turned into an explicit witness combination.
    """
    gens = _check_generators(generators, dim)
    # the generators' integer forms: (numerators over d, d, infinity mask, ...)
    forms = [g._form for g in gens]
    inf_mask = 0
    for form in forms:
        inf_mask |= form[2]
    inf_coords = [i for i in range(dim) if inf_mask >> i & 1]
    fin = [i for i in range(dim) if not inf_mask >> i & 1]

    if not fin:
        return _verified(gens, dim, MeetsCorner(_cover_witness(gens, inf_coords)))

    k = len(fin)
    constraints = [Constraint._of_ints((1,) * k, EQ, 1)]
    for nums, d, _, _ in forms:
        constraints.append(Constraint._of_ints(tuple(nums[i] for i in fin), LEQ, d))
    res = solve_lp(LPProblem(k, tuple(constraints), (0,) * k, "max"))

    if isinstance(res, LPOptimal):
        full = [0] * dim
        for pos, i in enumerate(fin):
            full[i] = res.point[pos]
        return _verified(gens, dim, Separated(SeparationWeights(tuple(full))))

    assert isinstance(res, LPInfeasible)
    # row j, w . nums_j <= d_j, is d_j times the pairing row w . g_j <= 1
    w = [-v * form[1] for v, form in zip(res.certificate[1:], forms)]
    witness = _witness_from_certificate(gens, fin, inf_coords, w)
    return _verified(gens, dim, MeetsCorner(witness))


def hull_disjoint_from_corner(generators, dim: int) -> bool:
    """Decision form: True iff a separating weight vector exists."""
    return isinstance(separate(generators, dim), Separated)


def _cover_witness(gens, inf_coords):
    """Uniform combination of generators covering every infinite coordinate."""
    cover = sorted({next(j for j, g in enumerate(gens) if g[i].is_infinite) for i in inf_coords})
    share = Fraction(1, len(cover))
    return tuple((j, share) for j in cover)


def _witness_from_certificate(gens, fin, inf_coords, w):
    """Build a hull point in the corner from Farkas multipliers.

    The multipliers of the pairing rows, negated (``w``) and normalised, give a
    convex combination whose finite coordinates all exceed one.  If some
    coordinates were eliminated as infinite, a small slice of an
    infinity-covering combination is mixed in without dropping any finite
    coordinate back to one.
    """
    total = sum(w)
    base = {j: wj / total for j, wj in enumerate(w) if wj > 0}

    if not inf_coords:
        return tuple(sorted(base.items()))

    cover = _cover_witness(gens, inf_coords)
    eps = Fraction(1, 2)
    for i in fin:
        x = sum(mu * gens[j][i].as_fraction() for j, mu in base.items())
        y = sum(share * gens[j][i].as_fraction() for j, share in cover)
        if y < x:
            # keep (1 - eps) x + eps y above one
            eps = min(eps, (x - 1) / (x - y) / 2)
    combo = {j: mu * (1 - eps) for j, mu in base.items()}
    for j, share in cover:
        combo[j] = combo.get(j, 0) + eps * share
    return tuple(sorted((j, v) for j, v in combo.items() if v > 0))


def combination_point(generators, witness) -> ExtVec:
    """Evaluate a weighted combination of generators with extended arithmetic."""
    gens = [as_extvec(g) for g in generators]
    out = ExtVec((ZERO,) * gens[0].dim)
    for j, coeff in witness:
        out = out + gens[j].scale(ExtReal.from_fraction(Fraction(coeff)))
    return out


def verify_separated(generators, weights, dim=None) -> bool:
    """Exact recheck: weights in the simplex and every pairing at most one."""
    gens = [as_extvec(g) for g in generators]
    if dim is not None and any(g.dim != dim for g in gens):
        return False
    vals = list(weights)
    if any(g.dim != len(vals) for g in gens):
        return False
    if any(v < 0 for v in vals) or sum(vals) != 1:
        return False
    w = ExtVec([ExtReal.from_fraction(Fraction(v)) for v in vals])
    return all(w.dot(g) <= ONE for g in gens)


def verify_meets_corner(generators, witness) -> bool:
    """Exact recheck: witness weights form a simplex point landing in the corner."""
    coeffs = [Fraction(c) for _, c in witness]
    idxs = [j for j, _ in witness]
    gens = [as_extvec(g) for g in generators]
    if any(j < 0 or j >= len(gens) for j in idxs):
        return False
    if any(c < 0 for c in coeffs) or sum(coeffs) != 1:
        return False
    return in_corner(combination_point(gens, witness))


def _verified(gens, dim, outcome):
    if isinstance(outcome, Separated):
        ok = verify_separated(gens, outcome.weights, dim)
    else:
        ok = verify_meets_corner(gens, outcome.witness)
    if not ok:
        raise AssertionError("internal error: separation certificate failed verification")
    return outcome
