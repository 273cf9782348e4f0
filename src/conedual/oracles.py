"""Exact cross-checks, deliberately independent of the LP machinery.

These decide the package's questions by other means, so the production
algorithms can be validated against them.  They share nothing with the
simplex solver beyond exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .extreal import as_extvec


def _maximin(rows, n):
    """The value ``max over y in the simplex of min_r r.y``, in ``Fraction``s.

    The minimum of the rows is concave and piecewise linear, so its maximum
    over the simplex sits at a point where ``n - 1`` of the planes
    ``y_i = 0`` and ``(r - s).y = 0`` meet (Shapley & Snow 1950, "Basic
    solutions of discrete games"); every such point is solved for and
    evaluated.  A duplicate row, or a row above another coordinatewise,
    never lowers the minimum on the simplex, so those are dropped first.
    """
    rows = list(dict.fromkeys(tuple(r) for r in rows))
    rows = [r for r in rows if not any(s != r and all(a >= b for a, b in zip(r, s)) for s in rows)]
    planes = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    planes += [tuple(a - b for a, b in zip(r, s)) for r, s in combinations(rows, 2)]
    systems = ([[*p, 0] for p in chosen] + [[Fraction(1)] * (n + 1)]
               for chosen in combinations(planes, n - 1))
    points = [y for y in map(_solve, systems) if y is not None and min(y) >= 0]
    return max(min(sum(a * b for a, b in zip(r, y)) for r in rows) for y in points)


def _solve(aug):
    """The unique solution of a square system given as augmented rows, or
    None when the system is singular."""
    n = len(aug)
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c] / aug[c][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [Fraction(aug[i][n]) / aug[i][i] for i in range(n)]


def hull_meets_corner(generators, dim: int) -> bool:
    """Whether the convex hull of the generators meets the open unit corner.

    On ``F``, the coordinates where no generator is ``inf``, the hull meets
    the corner iff ``min over w of max_j w.g_j`` exceeds one (the minimax
    theorem); a slice of weight on every generator then lifts the other
    coordinates to ``inf``.
    """
    gens = [as_extvec(g) for g in generators]
    if not gens or any(g.dim != dim for g in gens):
        raise ValueError("expected generators, each of dimension dim")
    fin = [i for i in range(dim) if all(g[i].is_finite for g in gens)]
    return not fin or _maximin([[-g[i].as_fraction() for i in fin] for g in gens], len(fin)) < -1


def order_holds(gvecs, hvecs) -> bool:
    """Whether ``min_i g_i.y <= max_k h_k.y`` at every point of the extended
    orthant.

    A point with support off ``R``, the coordinates where every ``h_k`` is
    finite, makes the maximum ``inf``.  Both sides are sups over finite
    truncations, so the finite points on ``R`` decide the rest, and by
    homogeneity those of its simplex.  A ``g_i`` infinite on ``R`` is
    ``inf`` inside that simplex, so it drops out, and the kept ``g_i``
    decide the game with rows ``g_i - h_k``: its value is at most zero.
    """
    gs = [as_extvec(g) for g in gvecs]
    hs = [as_extvec(h) for h in hvecs]
    if not gs or not hs or any(v.dim != hs[0].dim for v in gs + hs):
        raise ValueError("expected two nonempty families of one dimension")
    on_r = [j for j in range(hs[0].dim) if all(h[j].is_finite for h in hs)]
    if not on_r:
        return True
    kept = [g for g in gs if all(g[j].is_finite for j in on_r)]
    rows = [[g[j].as_fraction() - h[j].as_fraction() for j in on_r] for g in kept for h in hs]
    return bool(kept) and _maximin(rows, len(on_r)) <= 0


def minkowski_by_scaling_scan(rep, y, value, probes) -> bool:
    """Bracket a claimed Minkowski value by raw membership tests.

    For every probe r > 0: membership of y / r in the open set must hold
    exactly when r is below the claimed value.
    """
    for r in probes:
        if not r.is_finite or r.is_zero:
            raise ValueError("probes must be finite and positive")
        scaled = [e / r for e in y]
        inside = rep.contains(scaled)
        if inside != (r < value):
            return False
    return True
