"""Exact linear programming over the rationals with checkable certificates.

A dense two-phase simplex using Bland's smallest-index rule, so every run
terminates and is fully deterministic.  All variables are implicitly
nonnegative; callers encode a free variable as a difference of two
nonnegative ones.

The tableau holds Python integers over one common denominator ``D``.
Each constraint row is scaled by the lcm of its denominators, and every
pivot is integer-preserving (Edmonds 1967, Bareiss 1968): ``D`` is the
determinant of the current basis, every division is exact, and no gcd
runs inside the simplex loop.  A ``<=`` row with a nonnegative right-hand
side, or a ``>=`` row with a nonpositive one after negation, starts with
its slack in the basis, so phase 1 adds artificials only to the other
rows.  Values become ``Fraction`` only when the answer is read off.

Rows the package builds from integer forms enter as ints, unconverted; a
public ``Constraint`` converts every entry to ``Fraction``.  A multiplier
refers to its row as built: a row built ``s`` times larger gets 1/s of it.

Every answer carries evidence that can be re-verified without trusting
the solver:

* ``LPOptimal``     a feasible point, the exact objective value, and an
                    optimal dual, one multiplier per constraint, read off
                    the phase-2 reduced costs,
* ``LPInfeasible``  Farkas multipliers, one per constraint, that combine
                    the constraints into ``(something <= 0) > 0`` on the
                    nonnegative orthant, read off the phase-1 reduced costs,
* ``LPUnbounded``   an improving recession ray.

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

For ``max`` the dual has ``y_i >= 0`` on ``<=`` rows, ``<= 0`` on ``>=``
rows and ``A^T y >= c``; for ``min`` the signs and the inequality flip.
``verify_lp_result`` re-checks any answer against the original problem at
zero tolerance, an optimum's dual included with ``b . y == c . x``;
``solve_lp`` runs it internally before returning.  The check runs on integer
rows with cleared denominators, built once from the problem data and not
from the tableau, and on each certificate as integers over one common
denominator, so every test is an integer dot product, or one ``_fold``,
the weighted sum of rows that ``ExtVec`` combinations also run, plus a sign
or equality test (Dhiflaoui et al. 2003).  The solver starts its tableau from the same rows
and reads an optimum's value off them, over the objective's denominator
times ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import MalformedProblem
from .extreal import _fold

LEQ = "<="
GEQ = ">="
EQ = "=="
_RELS = (LEQ, GEQ, EQ)

def _frac(v):
    if type(v) is Fraction:
        return v
    if isinstance(v, float):
        raise MalformedProblem("floating point coefficients are not accepted")
    try:
        return Fraction(v)
    except (TypeError, ValueError) as exc:
        raise MalformedProblem(f"not a rational coefficient: {v!r}") from exc


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple
    rel: str
    rhs: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_frac(v) for v in self.coeffs))
        object.__setattr__(self, "rhs", _frac(self.rhs))
        if self.rel not in _RELS:
            raise MalformedProblem(f"unknown relation {self.rel!r}")

    @classmethod
    def _of_ints(cls, coeffs, rel, rhs):
        """A row of ints built by the package, stored without ``_frac``."""
        c = object.__new__(cls)
        c.__dict__.update(coeffs=coeffs, rel=rel, rhs=rhs)
        return c


@dataclass(frozen=True)
class LPProblem:
    n_vars: int
    constraints: tuple
    objective: tuple
    sense: str = "max"

    def __post_init__(self):
        if not isinstance(self.n_vars, int) or self.n_vars < 1:
            raise MalformedProblem("n_vars must be a positive integer")
        if self.sense not in ("max", "min"):
            raise MalformedProblem(f"unknown sense {self.sense!r}")
        cons = tuple(
            c if isinstance(c, Constraint) else Constraint(*c) for c in self.constraints
        )
        object.__setattr__(self, "constraints", cons)
        object.__setattr__(self, "objective", tuple(_frac(v) for v in self.objective))
        if len(self.objective) != self.n_vars:
            raise MalformedProblem("objective length disagrees with n_vars")
        for k, c in enumerate(cons):
            if len(c.coeffs) != self.n_vars:
                raise MalformedProblem(f"constraint {k} has {len(c.coeffs)} coefficients, expected {self.n_vars}")


@dataclass(frozen=True)
class LPOptimal:
    point: tuple
    value: Fraction
    dual: tuple


@dataclass(frozen=True)
class LPInfeasible:
    certificate: tuple


@dataclass(frozen=True)
class LPUnbounded:
    ray: tuple


def _require(cond, message):
    if not cond:
        raise AssertionError(f"internal solver error: {message}")


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
    variable has reduced cost zero.  Returns the final denominator and None
    at optimality, or the entering column when the problem is unbounded
    along it.  Ratios are compared by cross-multiplying, as every candidate
    pivot entry is positive.
    """
    while True:
        cost = T[m]
        pc = None
        least = limit
        for c, (d, j) in enumerate(zip(cost, basis[m:])):
            if d < 0 and j < least:
                pc, least = c, j
        if pc is None:
            return D, None
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
        if pr is None:
            return D, pc
        D = _pivot(T, basis, D, pr, pc)


def _over(values):
    """``values`` as integers over the lcm of their denominators: ``(nums, den)``."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _int_rows(problem):
    """The problem with cleared denominators, built once and cached on it.

    Returns ``(rows, scales, (cnums, cden))``: row ``i`` is constraint ``i``'s
    coefficients followed by its right-hand side, all times ``scales[i]``,
    the lcm of that row's own denominators; the objective is ``cnums / cden``.
    The cache sits outside the dataclass fields, so ``==`` and ``hash`` of
    the problem do not see it.
    """
    cached = problem.__dict__.get("_rows")
    if cached is None:
        rows = []
        scales = []
        for c in problem.constraints:
            nums, den = _over(c.coeffs + (c.rhs,))
            rows.append(tuple(nums))
            scales.append(den)
        cnums, cden = _over(problem.objective)
        cached = (tuple(rows), tuple(scales), (tuple(cnums), cden))
        object.__setattr__(problem, "_rows", cached)
    return cached


def _reduced(cost, basis, m):
    """The reduced cost of each variable: its column's entry in ``cost``,
    and zero for a basic variable, which has no column."""
    out = dict.fromkeys(basis[:m], 0)
    out.update(zip(basis[m:], cost))
    return out


def solve_lp(problem: LPProblem):
    """Solve exactly; returns LPOptimal, LPInfeasible, or LPUnbounded."""
    if not isinstance(problem, LPProblem):
        raise MalformedProblem("expected an LPProblem")
    n = problem.n_vars
    cons = problem.constraints
    m = len(cons)
    width = n + sum(1 for c in cons if c.rel != EQ)

    # Row i of the tableau is constraint i times scale[i], made integer with
    # a nonnegative right-hand side; its slack gets the entry +-1, which
    # rescales the slack without changing any ratio or cost sign.  A row
    # whose slack enters as +1 starts with the slack basic; every other row
    # gets an artificial, variable width + a for the a-th such row, and its
    # slack, if any, a column.
    rows, scales, (cnums, cden) = _int_rows(problem)
    scale = []
    basis = []
    slacks = []
    art_rows = []
    s = n
    for i, c in enumerate(cons):
        sign = -1 if c.rhs < 0 or (c.rel == GEQ and c.rhs == 0) else 1
        scale.append(sign * scales[i])
        if c.rel != EQ:
            unit = sign if c.rel == LEQ else -sign
            s += 1
            if unit > 0:
                basis.append(s - 1)
                continue
            slacks.append((i, unit, s - 1))
        basis.append(width + len(art_rows))
        art_rows.append(i)
    k = len(art_rows)
    pad = [0] * len(slacks)
    T = []
    for ints, sc in zip(rows, scale):
        if sc < 0:
            ints = [-v for v in ints]
        T.append(list(ints[:n]) + pad + [ints[-1]])
    for c, (i, unit, _) in enumerate(slacks, start=n):
        T[i][c] = unit
    basis += range(n)
    basis += [label for _, _, label in slacks]
    start = basis[:m]

    # Phase 1: minimise the sum of the artificials; they never re-enter, and
    # an artificial gets a column only once it leaves the basis.
    cost = [0] * (n + len(slacks) + 1)
    for i in art_rows:
        cost = [d - v for d, v in zip(cost, T[i])]
    T.append(cost)

    D, status = _iterate(T, basis, 1, m, limit=width)
    _require(status is None, "phase 1 cannot be unbounded")

    cost = T.pop()
    if cost[-1] < 0:
        # The simplex multipliers of the artificial objective prove
        # infeasibility: y_i = c_j - d_j for the variable j row i started with.
        d = _reduced(cost, basis, m)
        cert = tuple(
            Fraction(scale[i] * ((D if start[i] >= width else 0) - d[start[i]]), D)
            for i in range(m)
        )
        result = LPInfeasible(cert)
        _require(verify_lp_result(problem, result), "invalid infeasibility certificate")
        return result

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

    sign = -1 if problem.sense == "max" else 1
    cmin = [sign * v for v in cnums] + [0] * (width + k - n)
    cscale = sign * cden
    cost = [D * cmin[j] for j in basis[m:]] + [0]
    for b, row in zip(basis[:m], T):
        cb = cmin[b]
        if cb:
            cost = [d - cb * v for d, v in zip(cost, row)]
    T.append(cost)

    D, status = _iterate(T, basis, D, m, limit=width)
    if status is None:
        point = [Fraction(0)] * n
        for i, b in enumerate(basis[:m]):
            if b < n:
                point[b] = Fraction(T[i][-1], D)
        # c . x, with c = cnums / cden and x_b = T[i][-1] / D
        value = Fraction(sum(cnums[b] * T[i][-1] for i, b in enumerate(basis[:m]) if b < n), cden * D)
        # y_i = -d_j / D for the variable j row i started with, unscaled
        d = _reduced(T[m], basis, m)
        dual = tuple(Fraction(-scale[i] * d[start[i]], D * cscale) for i in range(m))
        result = LPOptimal(tuple(point), value, dual)
    else:
        ray = [Fraction(0)] * n
        j = basis[m + status]
        if j < n:
            ray[j] = Fraction(1)
        for i, b in enumerate(basis[:m]):
            if b < n:
                ray[b] = Fraction(-T[i][status], D)
        result = LPUnbounded(tuple(ray))
    _require(verify_lp_result(problem, result), "solver output failed verification")
    return result


def _exact(values):
    """True when every entry is an ``int`` or a ``Fraction``; a ``bool`` is not an ``int``."""
    return all(type(v) is int or type(v) is Fraction for v in values)


def verify_lp_result(problem: LPProblem, result) -> bool:
    """Re-check a solver answer against the problem, trusting nothing.

    Every entry of the answer must be an ``int`` or a ``Fraction``: a float
    or any other type makes the answer invalid, as it cannot be checked
    exactly.
    """
    n = problem.n_vars
    cons = problem.constraints
    rows, scales, (cnums, cden) = _int_rows(problem)

    if isinstance(result, LPOptimal):
        x = result.point
        value = result.value
        if len(x) != n or not _exact(x) or not _exact((value,)):
            return False
        xn, xd = _over(x)
        if any(v < 0 for v in xn):
            return False
        for row, c in zip(rows, cons):
            lhs = sum(map(mul, row, xn))
            rhs = row[n] * xd
            if c.rel == LEQ and not lhs <= rhs:
                return False
            if c.rel == GEQ and not lhs >= rhs:
                return False
            if c.rel == EQ and lhs != rhs:
                return False
        vnum, vden = value.numerator, value.denominator
        if sum(map(mul, cnums, xn)) * vden != vnum * cden * xd:
            return False
        # Optimality: a dual y with the signs of the dual LP, A^T y >= c for
        # max (<= c for min), and b . y equal to the primal value.
        y = result.dual
        if y is None or len(y) != len(cons) or not _exact(y):
            return False
        yn, yd = _over(y)
        flip = 1 if problem.sense == "max" else -1
        for v, c in zip(yn, cons):
            if c.rel == LEQ and flip * v < 0:
                return False
            if c.rel == GEQ and flip * v > 0:
                return False
        combined, d = _fold(list(zip(yn, scales, rows)), yd, n + 1)
        for j in range(n):
            if flip * (combined[j] * cden - cnums[j] * d) < 0:
                return False
        return combined[n] * vden == vnum * d

    if isinstance(result, LPInfeasible):
        z = result.certificate
        if len(z) != len(cons) or not _exact(z):
            return False
        zn, zd = _over(z)
        for v, c in zip(zn, cons):
            if c.rel == LEQ and v > 0:
                return False
            if c.rel == GEQ and v < 0:
                return False
        combined, _ = _fold(list(zip(zn, scales, rows)), zd, n + 1)
        # On x >= 0 the combination forces (<= 0) > 0, a contradiction.
        return all(v <= 0 for v in combined[:n]) and combined[n] > 0

    if isinstance(result, LPUnbounded):
        r = result.ray
        if len(r) != n or not _exact(r):
            return False
        rn, _ = _over(r)
        if any(v < 0 for v in rn) or not any(rn):
            return False
        for row, c in zip(rows, cons):
            d = sum(map(mul, row, rn))
            if c.rel == LEQ and d > 0:
                return False
            if c.rel == GEQ and d < 0:
                return False
            if c.rel == EQ and d != 0:
                return False
        gain = sum(map(mul, cnums, rn))
        return gain > 0 if problem.sense == "max" else gain < 0

    return False
