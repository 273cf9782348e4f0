"""The package's exact LP engine: integer rows in, a checked optimum out.

``separate`` and the margin LP build their rows as ints from the
``ExtVec`` integer forms and maximise.  This module is private to them;
``solve_lp`` is its one entry.

Each row is one int tuple ``(a_1, ..., a_n, b)`` with ``b >= 0``, read as
``a . x <= b``, so ``<=`` is the only relation.  As ``b >= 0``, the origin is
feasible and every row starts with its slack in the basis: there is no
phase 1, and every pivot entry is positive.

A dense simplex using Bland's smallest-index rule, so every run
terminates and is fully deterministic.  All variables are implicitly
nonnegative; callers encode a free variable as a difference of two
nonnegative ones.

The tableau holds Python integers over one common denominator ``D``, and
every pivot is integer-preserving (Edmonds 1967, Bareiss 1968): ``D`` is
the determinant of the current basis, every division is exact, and no gcd
runs inside the simplex loop.

The tableau is condensed (Tucker): it stores only the nonbasic columns,
each labelled with its variable, beside the variable of each row, as a
basic column is ``D`` times a unit vector and its reduced cost zero.  A
pivot swaps the two labels and gives the leaving variable the entering
one's column, and Bland's rule picks the smallest variable, not the
leftmost column, so the pivots are those of the full tableau.  The
multiplier of row ``i`` reads ``y_i = d / D`` with ``d`` the reduced cost
of its slack, zero while the slack is basic.

The answer, an ``LPOptimal``, is read off the tableau once, as integers
over ``D``: a feasible point and an optimal dual, one multiplier per row,
with ``y >= 0``, ``A^T y >= c`` and ``b . y == c . x``.  ``_verify`` checks
that integer form against the rows, at zero tolerance, before
``solve_lp`` returns: every test is an integer dot product or one
``_fold``, the weighted sum of rows that ``ExtVec`` combinations also run,
plus a sign or equality test (Dhiflaoui et al. 2003; McConnell et al.
2011).  Keeping the answer in integers end to end follows Applegate, Cook,
Dash & Espinoza 2007.  The ``Fraction`` properties ``point`` and ``value``
read the checked form, and are built only when read.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .certify import require
from .extreal import _fold

_ZERO = Fraction(0)


class LPProblem:
    """Maximise ``objective . x``, ``n_vars`` ints, over ``x >= 0`` subject to
    ``constraints``: rows ``(a_1, ..., a_n, b)`` of ints with ``b >= 0``, each
    ``a . x <= b``."""

    __slots__ = ("n_vars", "constraints", "objective")

    def __init__(self, n_vars, constraints, objective):
        self.n_vars = n_vars
        self.constraints = constraints
        self.objective = objective


class LPOptimal:
    """An optimum over the denominator ``d > 0``: the point ``xn / d``, its
    value ``vn / d`` and an optimal dual ``yn / d``, one multiplier per row.
    ``point`` and ``value`` are the first two as ``Fraction``s."""

    __slots__ = ("xn", "vn", "yn", "d")

    def __init__(self, xn, vn, yn, d):
        self.xn, self.vn, self.yn, self.d = xn, vn, yn, d

    @property
    def point(self) -> tuple:
        d = self.d
        return tuple(Fraction(v, d) if v else _ZERO for v in self.xn)

    @property
    def value(self) -> Fraction:
        return Fraction(self.vn, self.d)


def _pivot(T, basis, D, pr, pc):
    """Integer-preserving pivot on ``T[pr][pc] > 0``; returns the new denominator.

    ``T`` holds the nonbasic columns and the right-hand side, and ``basis``
    lists the variable of each row followed by the variable of each column.
    Every entry of ``T`` is ``D`` times the entry of the rational tableau,
    and ``D`` is the determinant of the basis in the integer system, so
    every division below is exact (Edmonds 1967, Bareiss 1968).  The
    entering variable's column leaves the tableau and the leaving
    variable's column, ``D`` times a unit vector before the pivot, takes its
    place: ``D`` in the pivot row and ``-f`` in a row whose entry in column
    ``pc`` was ``f``.
    """
    prow = T[pr]
    p = prow[pc]
    for r, row in enumerate(T):
        if r == pr:
            continue
        f = row[pc]
        if f:
            row = [(p * a - f * b) // D for a, b in zip(row, prow)]
            row[pc] = -f
            T[r] = row
        elif p != D:
            T[r] = [p * a // D for a in row]
    prow[pc] = D
    # column pc's variable follows the m row variables: basis[m + pc]
    k = len(basis) - len(prow) + 1 + pc
    basis[pr], basis[k] = basis[k], basis[pr]
    return p


def _iterate(T, basis, D, m):
    """Bland's rule simplex loop on a tableau whose last row is reduced costs.

    Of the columns with a negative reduced cost, the one whose variable is
    smallest enters; a basic variable has reduced cost zero.  Returns the
    final denominator at optimality.  An entering column with no positive
    entry would make the problem unbounded, an internal error: neither
    caller builds an unbounded LP.  Ratios are compared by
    cross-multiplying, as every candidate pivot entry is positive.
    """
    while True:
        cost = T[m]
        pc = None
        least = len(basis)
        for c, (d, j) in enumerate(zip(cost, basis[m:])):
            if d < 0 and j < least:
                pc, least = c, j
        if pc is None:
            return D
        pr = None
        for i in range(m):
            t = T[i][pc]
            if t > 0:
                if pr is None:
                    pr = i
                    continue
                left = T[i][-1] * T[pr][pc]
                right = T[pr][-1] * t
                if left < right or (left == right and basis[i] < basis[pr]):
                    pr = i
        require(pr is not None, "the package's LPs cannot be unbounded")
        D = _pivot(T, basis, D, pr, pc)


def solve_lp(problem: LPProblem):
    """Maximise exactly; returns an ``LPOptimal`` that ``_verify`` accepted.
    An unbounded problem is an internal error: the package builds none."""
    n = problem.n_vars
    cnums = problem.objective
    T = [list(row) for row in problem.constraints]
    m = len(T)

    # Row i starts with its slack, variable n + i, basic; only the n variables
    # have columns, and their reduced costs for minimising -c . x are -c.
    basis = [*range(n, n + m), *range(n)]
    T.append([-v for v in cnums] + [0])

    D = _iterate(T, basis, 1, m)
    xn = [0] * n
    for i, b in enumerate(basis[:m]):
        if b < n:
            xn[b] = T[i][-1]
    # the dual of the maximum is y_i = d / D for the reduced cost d of row i's
    # slack, zero while that slack is basic
    d = dict.fromkeys(basis[:m], 0)
    d.update(zip(basis[m:], T[m]))
    yn = [d[j] for j in range(n, n + m)]
    result = LPOptimal(xn, sum(map(mul, cnums, xn)), yn, D)
    require(_verify(problem, result), "solver output failed verification")
    return result


def _verify(problem, result):
    """True when ``result``'s integer form answers ``problem`` exactly."""
    n = problem.n_vars
    rows = problem.constraints
    xn, vn, yn, d = result.xn, result.vn, result.yn, result.d
    if d <= 0 or len(xn) != n or any(v < 0 for v in xn) or len(yn) != len(rows):
        return False
    if any(sum(map(mul, row, xn)) > row[n] * d for row in rows):
        return False
    cnums = problem.objective
    if sum(map(mul, cnums, xn)) != vn:
        return False
    # Optimality: a dual y >= 0 with A^T y >= c, and b . y equal to the
    # primal value; both are over d.
    if any(v < 0 for v in yn):
        return False
    combined, _ = _fold([(v, 1, row) for v, row in zip(yn, rows)], d, n + 1)
    return all(a >= cj * d for a, cj in zip(combined, cnums)) and combined[n] == vn
