"""The package's exact LP engine: integer rows in, a checked answer out.

``separate`` and the margin LP build their rows as ints from the
``ExtVec`` integer forms and maximise.  This module is private to them;
``solve_lp`` is its one entry.

Each row is one int tuple ``(a_1, ..., a_n, b)`` with ``b >= 0``: the first
``equalities`` rows read ``a . x = b`` and the rest ``a . x <= b``.  A row's
relation is read from its index, so no other relation can be written.

A dense two-phase simplex using Bland's smallest-index rule, so every run
terminates and is fully deterministic.  All variables are implicitly
nonnegative; callers encode a free variable as a difference of two
nonnegative ones.

The tableau holds Python integers over one common denominator ``D``, and
every pivot is integer-preserving (Edmonds 1967, Bareiss 1968): ``D`` is
the determinant of the current basis, every division is exact, and no gcd
runs inside the simplex loop.  As ``b >= 0``, a ``<=`` row starts with its
slack in the basis, so phase 1 adds artificials only to the ``=`` rows
(Chvatal 1983, ch. 8).

The tableau is condensed (Tucker): it stores only the nonbasic columns,
each labelled with its variable, beside the variable of each row, as a
basic column is ``D`` times a unit vector and its reduced cost zero.  A
pivot swaps the two labels and gives the leaving variable the entering
one's column, and Bland's rule picks the smallest variable, not the
leftmost column, so the pivots are those of the full tableau.  An
artificial gets a column only once it leaves the basis, and keeps it
through phase 2, so both multiplier sets read ``y_i = c_j - d_j / D`` with
``d_j`` the reduced cost of the variable ``j`` row ``i`` started with, zero
while it is basic.

Each answer is read off the tableau once, as integers over ``D``, and
carries evidence that is checked without trusting the solver:

* ``LPOptimal``     a feasible point and an optimal dual, one multiplier
                    per row, read off the phase-2 reduced costs: ``y >= 0``
                    on ``<=`` rows, ``A^T y >= c`` and ``b . y == c . x``,
* ``LPInfeasible``  Farkas multipliers, one per row, that combine the rows
                    into ``(something <= 0) > 0`` on the nonnegative
                    orthant, read off the phase-1 reduced costs.

``_verify`` checks that integer form against the rows, at zero tolerance,
before ``solve_lp`` returns: every test is an integer dot product or one
``_fold``, the weighted sum of rows that ``ExtVec`` combinations also run,
plus a sign or equality test (Dhiflaoui et al. 2003; McConnell et al.
2011).  Keeping the answer in integers end to end follows Applegate, Cook,
Dash & Espinoza 2007.  The ``Fraction`` fields ``point``, ``value`` and
``certificate`` are built from the checked form.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .certify import require
from .extreal import _fold

_ZERO = Fraction(0)


class LPProblem:
    """Maximise ``objective . x``, ``n_vars`` ints, over ``x >= 0`` subject to
    ``constraints``: rows ``(a_1, ..., a_n, b)`` of ints with ``b >= 0``, the
    first ``equalities`` of them ``a . x = b`` and the rest ``a . x <= b``."""

    __slots__ = ("n_vars", "constraints", "objective", "equalities")

    def __init__(self, n_vars, constraints, objective, equalities):
        self.n_vars = n_vars
        self.constraints = constraints
        self.objective = objective
        self.equalities = equalities


def _fractions(nums, den):
    """The ``Fraction``s ``nums[i] / den``, zeros shared."""
    return tuple(Fraction(v, den) if v else _ZERO for v in nums)


class LPOptimal:
    """An optimum over the denominator ``d > 0``: the point ``xn / d``, its
    value ``vn / d`` and an optimal dual ``yn / d``, one multiplier per row.
    ``point`` and ``value`` are the first two as ``Fraction``s."""

    __slots__ = ("xn", "vn", "yn", "d", "point", "value")

    def __init__(self, xn, vn, yn, d):
        self.xn, self.vn, self.yn, self.d = xn, vn, yn, d
        self.point = _fractions(xn, d)
        self.value = Fraction(vn, d)


class LPInfeasible:
    """Farkas multipliers ``zn / d``, one per row, with ``d > 0``;
    ``certificate`` is them as ``Fraction``s."""

    __slots__ = ("zn", "d", "certificate")

    def __init__(self, zn, d):
        self.zn, self.d = zn, d
        self.certificate = _fractions(zn, d)


def _pivot(T, basis, D, pr, pc):
    """Integer-preserving pivot on ``T[pr][pc]``; returns the new denominator.

    ``T`` holds the nonbasic columns and the right-hand side, and ``basis``
    lists the variable of each row followed by the variable of each column.
    Every entry of ``T`` is ``D`` times the entry of the rational tableau,
    and ``D`` is, up to sign, the determinant of the basis in the integer
    system, so every division below is exact (Edmonds 1967, Bareiss 1968).
    The entering variable's column leaves the tableau and the leaving
    variable's column, ``D`` times a unit vector before the pivot, takes its
    place: ``D`` in the pivot row and ``-f`` in a row whose entry in column
    ``pc`` was ``f``.  A negative pivot, possible only while driving
    artificials out, negates the pivot row first, which flips both signs
    of that column, so that ``D`` stays positive and sign tests on the
    integer entries read as sign tests on the rational ones.
    """
    prow = T[pr]
    p = prow[pc]
    negated = p < 0
    if negated:
        p = -p
        T[pr] = prow = [-v for v in prow]
    for r, row in enumerate(T):
        if r == pr:
            continue
        f = row[pc]
        if f:
            row = [(p * a - f * b) // D for a, b in zip(row, prow)]
            row[pc] = f if negated else -f
            T[r] = row
        elif p != D:
            T[r] = [p * a // D for a in row]
    prow[pc] = -D if negated else D
    # column pc's variable follows the m row variables: basis[m + pc]
    k = len(basis) - len(prow) + 1 + pc
    basis[pr], basis[k] = basis[k], basis[pr]
    return p


def _iterate(T, basis, D, m, limit):
    """Bland's rule simplex loop on a tableau whose last row is reduced costs.

    Of the columns with a negative reduced cost, the one whose variable is
    smallest enters, and only variables below ``limit`` may enter; a basic
    variable has reduced cost zero.  Returns the final denominator at
    optimality.  An entering column with no positive entry would make the
    problem unbounded, an internal error: phase 1's objective is bounded
    below by zero, and neither caller builds an unbounded LP.  Ratios are
    compared by cross-multiplying, as every candidate pivot entry is
    positive.
    """
    while True:
        cost = T[m]
        pc = None
        least = limit
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


def _reduced(cost, basis, m):
    """The reduced cost of each variable: its column's entry in ``cost``,
    and zero for a basic variable, which has no column."""
    out = dict.fromkeys(basis[:m], 0)
    out.update(zip(basis[m:], cost))
    return out


def solve_lp(problem: LPProblem):
    """Maximise exactly; returns an ``LPOptimal`` or an ``LPInfeasible``
    that ``_verify`` accepted.  An unbounded problem is an internal error:
    the package builds none."""
    n = problem.n_vars
    T = [list(row) for row in problem.constraints]
    m = len(T)
    e = problem.equalities
    width = n + m - e

    # Row i < e gets the artificial width + i, and row i >= e starts with its
    # slack, variable n + i - e, basic; only the n variables have columns.
    basis = [*range(width, width + e), *range(n, width), *range(n)]
    start = basis[:m]

    # Phase 1: minimise the sum of the artificials; they never re-enter, and
    # an artificial gets a column only once it leaves the basis.
    cost = [0] * (n + 1)
    for row in T[:e]:
        cost = [d - v for d, v in zip(cost, row)]
    T.append(cost)

    D = _iterate(T, basis, 1, m, limit=width)

    cost = T.pop()
    if cost[-1] < 0:
        # The simplex multipliers of the artificial objective prove
        # infeasibility: y_i = c_j - d_j for the variable j row i started with.
        d = _reduced(cost, basis, m)
        zn = [(D if j >= width else 0) - d[j] for j in start]
        return _checked(problem, LPInfeasible(zn, D))

    # Drive leftover artificials out of the basis, each on the column of the
    # smallest variable with a nonzero entry in its row; a row that cannot
    # pivot became 0 = 0 and keeps its artificial basic at zero (dual zero).
    for i in range(m):
        if basis[i] >= width:
            row = T[i]
            pc = None
            least = width
            for c, j in enumerate(basis[m:]):
                if j < least and row[c]:
                    pc, least = c, j
            if pc is not None:
                D = _pivot(T, basis, D, i, pc)

    # Phase 2 minimises -c . x.
    cnums = problem.objective
    cmin = [-v for v in cnums] + [0] * (width + e - n)
    cost = [D * cmin[j] for j in basis[m:]] + [0]
    for b, row in zip(basis[:m], T):
        cb = cmin[b]
        if cb:
            cost = [d - cb * v for d, v in zip(cost, row)]
    T.append(cost)

    D = _iterate(T, basis, D, m, limit=width)
    xn = [0] * n
    for i, b in enumerate(basis[:m]):
        if b < n:
            xn[b] = T[i][-1]
    # phase 2 minimised -c . x, so the dual of the maximum is y_i = d_j / D
    # for the variable j row i started with
    d = _reduced(T[m], basis, m)
    yn = [d[j] for j in start]
    return _checked(problem, LPOptimal(xn, sum(map(mul, cnums, xn)), yn, D))


def _checked(problem, result):
    """``result``, once ``_verify`` accepts it."""
    require(_verify(problem, result), "solver output failed verification")
    return result


def _verify(problem, result):
    """True when ``result``'s integer form answers ``problem`` exactly."""
    n = problem.n_vars
    rows = problem.constraints
    e = problem.equalities

    if type(result) is LPOptimal:
        xn, vn, yn, d = result.xn, result.vn, result.yn, result.d
        if d <= 0 or len(xn) != n or any(v < 0 for v in xn) or len(yn) != len(rows):
            return False
        for i, row in enumerate(rows):
            lhs = sum(map(mul, row, xn))
            rhs = row[n] * d
            if lhs > rhs or (i < e and lhs != rhs):
                return False
        cnums = problem.objective
        if sum(map(mul, cnums, xn)) != vn:
            return False
        # Optimality: a dual y with the signs of the dual LP, A^T y >= c,
        # and b . y equal to the primal value; both are over d.
        if any(v < 0 for v in yn[e:]):
            return False
        combined, _ = _fold([(v, 1, row) for v, row in zip(yn, rows)], d, n + 1)
        return all(a >= cj * d for a, cj in zip(combined, cnums)) and combined[n] == vn

    zn = result.zn
    if result.d <= 0 or len(zn) != len(rows) or any(v > 0 for v in zn[e:]):
        return False
    combined, _ = _fold([(v, 1, row) for v, row in zip(zn, rows)], result.d, n + 1)
    # On x >= 0 the combination forces (<= 0) > 0, a contradiction.
    return all(v <= 0 for v in combined[:n]) and combined[n] > 0
