"""Exact checks of the package's certificates, each written once.

A separation answer is a simplex point whose pairing with every generator
stays at or below one, or a convex combination of generators inside the
open corner; an order answer is a point where the maximum of the branches
falls below the minimum of the clause, or a branch cover of the clause's
mix.  The checks here use extended-real arithmetic only and run no LP, so
a checker never trusts the algorithm it checks (McConnell et al. 2011,
"Certifying algorithms").  ``require`` is the package's one internal error.
"""

from __future__ import annotations

from operator import mul

# EmptyList is bound from extreal, this module's one package import
from .extreal import EmptyList, ExtVec, _weighted_sum, as_extvec, ext_max, ext_min


def require(ok, what):
    """Raise the internal error ``what`` unless ``ok``: an answer failed its own check."""
    if not ok:
        raise AssertionError(f"internal error: {what}")


def simplex(values):
    """``values`` as a simplex point, an ``ExtVec``, or None.  Anything but an
    ``ExtVec`` is coerced once: nonempty, of ``int``s, ``Fraction``s or
    ``ExtReal``s, never a ``bool`` or a ``float``, none negative.  The point
    is finite, and its numerators sum to its denominator."""
    if type(values) is not ExtVec:
        values = tuple(values)
        if not values:
            return None
        try:
            values = ExtVec(values)
        except (TypeError, ValueError):
            return None
    nums, d, inf, _ = values._form
    return values if not inf and sum(nums) == d else None


def in_corner(x: ExtVec) -> bool:
    """True iff every coordinate strictly exceeds one (infinity counts)."""
    nums, d, inf, _ = as_extvec(x)._form
    return all(inf >> i & 1 or n > d for i, n in enumerate(nums))


def combination_point(generators, witness) -> ExtVec:
    """Evaluate a weighted combination of generators as one weighted sum.
    The weights are ``int``s, ``Fraction``s or ``ExtReal``s, as ``ExtReal``
    takes them: a ``bool``, a ``float`` or a string raises ``TypeError``."""
    gens = [as_extvec(g) for g in generators]
    if not gens:
        raise EmptyList("at least one generator is required")
    members = [gens[j] for j, _ in witness]
    return _weighted_sum([c for _, c in witness], members, gens[0].dim)


def verify_separated(generators, weights, dim=None) -> bool:
    """Exact recheck: weights in the simplex and every pairing at most one.

    On the integer forms, ``w . g <= 1`` reads ``sum wn * gn <= wd * gd``; it
    fails where a positive weight meets an infinite entry of ``g``, and holds
    there for a zero weight (``0 * inf = 0``), as ``ExtVec.dot`` pairs them.
    """
    gens = [as_extvec(g) for g in generators]
    vals = simplex(weights)
    if vals is None or any(g.dim != len(vals) or dim not in (None, g.dim) for g in gens):
        return False
    wn, wd, _, w_nonzero = vals._form
    return all(not g_inf & w_nonzero and sum(map(mul, wn, gn)) <= wd * gd
               for gn, gd, g_inf, _ in (g._form for g in gens))


def verify_meets_corner(generators, witness) -> bool:
    """Exact recheck: witness weights form a simplex point landing in the corner."""
    gens = [as_extvec(g) for g in generators]
    if any(type(j) is not int or j < 0 or j >= len(gens) for j, _ in witness):
        return False
    coeffs = simplex(c for _, c in witness)
    members = [gens[j] for j, _ in witness]
    return coeffs is not None and in_corner(_weighted_sum(coeffs, members, gens[0].dim))


def covered(vec, lam, hvecs) -> bool:
    """``vec <= sum_k lam_k h_k`` on R, the coordinates where every h_k is finite,
    since off R the maximum of the h_k is infinite; on integers, by
    cross-multiplying the two denominators.  False unless ``lam`` has one
    weight per h_k."""
    if len(lam) != len(hvecs):
        return False
    cn, cd, c_inf, _ = vec._form
    sn, sd, skip, _ = _weighted_sum(lam, hvecs, len(cn))._form
    for h in hvecs:
        skip |= h._form[2]
    return not c_inf & ~skip and all(
        skip >> j & 1 or c * sd <= s * cd for j, (c, s) in enumerate(zip(cn, sn)))


def refutes(y, gvecs, hvecs) -> bool:
    """``max_k h_k . y < min_i g_i . y``: y shows that min_i g_i <= max_k h_k fails.

    Every pairing is ``ExtVec.dot``, so every member's dimension is checked,
    and an empty family raises ``EmptyList``; the max-min walk that
    evaluates the functionals is not run."""
    return ext_max([h.dot(y) for h in hvecs]) < ext_min([g.dot(y) for g in gvecs])
