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
rows.

Each answer is read off once, as integers over one positive denominator:
the point, the Farkas certificate and the ray over ``D``, the dual over
``D`` times the objective's denominator.  One integer verifier,
``_verify``, checks that form before ``solve_lp`` returns.  The result's
``Fraction`` fields are built from it, and the form rides on the result
outside the record fields, so the package's callers read the integers
back through ``_answer`` without a ``Fraction`` round trip.
``verify_lp_result`` puts a given result's fields over one denominator
each, once, and runs the same verifier.

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
``solve_lp`` runs the same check before returning.  The check runs on
integer rows with cleared denominators, built once from the problem data
and not from the tableau, and on each certificate as integers over one
common denominator, so every test is an integer dot product, or one
``_fold``, the weighted sum of rows that ``ExtVec`` combinations also run,
plus a sign or equality test (Dhiflaoui et al. 2003).  The solver starts
its tableau from the same rows and reads an optimum's value off them, over
the objective's denominator times ``D``.  Keeping the answer in integers
end to end follows Applegate, Cook, Dash & Espinoza 2007.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from ._record import Record
from .certify import require
from .errors import MalformedProblem
from .extreal import _fold

LEQ = "<="
GEQ = ">="
EQ = "=="
_RELS = (LEQ, GEQ, EQ)

_ZERO = Fraction(0)


def _frac(v):
    """``v`` as a ``Fraction``: an ``int`` or a ``Fraction``, the rule of ``_exact``."""
    if type(v) is Fraction:
        return v
    if type(v) is int:
        return Fraction(v)
    if isinstance(v, float):
        raise MalformedProblem("floating point coefficients are not accepted")
    raise MalformedProblem(f"not a rational coefficient: {v!r}")


class Constraint(Record):
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


class LPProblem(Record):
    n_vars: int
    constraints: tuple
    objective: tuple
    sense: str = "max"

    def __post_init__(self):
        if type(self.n_vars) is not int or self.n_vars < 1:
            raise MalformedProblem("n_vars must be a positive integer")
        if self.sense not in ("max", "min"):
            raise MalformedProblem(f"unknown sense {self.sense!r}")
        cons = tuple(
            c if isinstance(c, Constraint) else Constraint(*c) for c in self.constraints
        )
        object.__setattr__(self, "constraints", cons)
        # an int objective entry is already exact and stays an int
        objective = tuple(v if type(v) is int else _frac(v) for v in self.objective)
        object.__setattr__(self, "objective", objective)
        if len(self.objective) != self.n_vars:
            raise MalformedProblem("objective length disagrees with n_vars")
        for k, c in enumerate(cons):
            if len(c.coeffs) != self.n_vars:
                raise MalformedProblem(f"constraint {k} has {len(c.coeffs)} coefficients, expected {self.n_vars}")


class LPOptimal(Record):
    point: tuple
    value: Fraction
    dual: tuple


class LPInfeasible(Record):
    certificate: tuple


class LPUnbounded(Record):
    ray: tuple


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
    The cache sits outside the record fields, so ``==`` and ``hash`` of
    the problem do not see it.
    """
    cached = problem.__dict__.get("_rows")
    if cached is None:
        rows = []
        scales = []
        for c in problem.constraints:
            if type(c.rhs) is int:
                # a row of ``Constraint._of_ints``: ints already, as a public
                # ``Constraint`` holds only ``Fraction``s
                rows.append(c.coeffs + (c.rhs,))
                scales.append(1)
                continue
            nums, den = _over(c.coeffs + (c.rhs,))
            rows.append(tuple(nums))
            scales.append(den)
        objective = problem.objective
        if all(type(v) is int for v in objective):
            cnums, cden = objective, 1
        else:
            cnums, cden = _over(objective)
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
    require(status is None, "phase 1 cannot be unbounded")

    cost = T.pop()
    if cost[-1] < 0:
        # The simplex multipliers of the artificial objective prove
        # infeasibility: y_i = c_j - d_j for the variable j row i started with.
        d = _reduced(cost, basis, m)
        zn = [scale[i] * ((D if start[i] >= width else 0) - d[start[i]]) for i in range(m)]
        return _answered(problem, LPInfeasible(_fractions(zn, D)), (zn, D),
                         "invalid infeasibility certificate")

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
    cost = [D * cmin[j] for j in basis[m:]] + [0]
    for b, row in zip(basis[:m], T):
        cb = cmin[b]
        if cb:
            cost = [d - cb * v for d, v in zip(cost, row)]
    T.append(cost)

    D, status = _iterate(T, basis, D, m, limit=width)
    xn = [0] * n
    if status is None:
        for i, b in enumerate(basis[:m]):
            if b < n:
                xn[b] = T[i][-1]
        # c . x, with c = cnums / cden and x = xn / D
        vn, vd = sum(map(mul, cnums, xn)), cden * D
        # y_i = -d_j / (D * sign * cden) for the variable j row i started
        # with, unscaled; sign is +-1, so it moves to the numerator
        d = _reduced(T[m], basis, m)
        yn = [-sign * scale[i] * d[start[i]] for i in range(m)]
        yd = D * cden
        result = LPOptimal(_fractions(xn, D), Fraction(vn, vd), _fractions(yn, yd))
        return _answered(problem, result, (xn, D, vn, vd, yn, yd),
                         "solver output failed verification")
    j = basis[m + status]
    if j < n:
        xn[j] = D
    for i, b in enumerate(basis[:m]):
        if b < n:
            xn[b] = -T[i][status]
    return _answered(problem, LPUnbounded(_fractions(xn, D)), (xn, D),
                     "solver output failed verification")


def _fractions(nums, den):
    """The ``Fraction``s ``nums[i] / den``, zeros shared."""
    return tuple(Fraction(v, den) if v else _ZERO for v in nums)


def _answered(problem, result, form, failure):
    """``result`` carrying its integer ``form``, once ``_verify`` accepts it.

    The form sits outside the record fields, as ``_int_rows`` caches on
    the problem, so ``==``, ``hash`` and ``repr`` of the result do not see it.
    """
    require(_verify(problem, result, form), failure)
    object.__setattr__(result, "_ints", form)
    return result


def _answer(result):
    """``result`` as integers, the layout ``_verify`` reads.

    ``(xn, xd, vn, vd, yn, yd)`` for an optimum: the point ``xn / xd``, the
    value ``vn / vd`` and the dual ``yn / yd``; ``(zn, zd)`` for the Farkas
    certificate and ``(rn, rd)`` for the ray.  Every denominator is
    positive.  This is the form ``solve_lp`` attached; a result built by
    hand has its public fields put over one denominator each, once.
    """
    form = result.__dict__.get("_ints")
    return form if form is not None else _over_fields(result)


def _exact(values):
    """True when every entry is an ``int`` or a ``Fraction``; a ``bool`` is not an ``int``."""
    return all(type(v) is int or type(v) is Fraction for v in values)


def _over_fields(result):
    """``result``'s public fields in the layout of ``_answer``, each field
    over the lcm of its denominators; None when an entry is not an ``int``
    or a ``Fraction``, the dual is missing, or ``result`` is no LP answer."""
    if isinstance(result, LPOptimal):
        x, value, y = result.point, result.value, result.dual
        if y is None or not (_exact(x) and _exact((value,)) and _exact(y)):
            return None
        return (*_over(x), value.numerator, value.denominator, *_over(y))
    if isinstance(result, LPInfeasible):
        field = result.certificate
    elif isinstance(result, LPUnbounded):
        field = result.ray
    else:
        return None
    return _over(field) if _exact(field) else None


def verify_lp_result(problem: LPProblem, result) -> bool:
    """Re-check a solver answer against the problem, trusting nothing.

    Every entry of the answer must be an ``int`` or a ``Fraction``: a float
    or any other type makes the answer invalid, as it cannot be checked
    exactly.  The fields are put over one denominator each and checked by
    ``_verify``, the check ``solve_lp`` runs on every answer.
    """
    form = _over_fields(result)
    return form is not None and _verify(problem, result, form)


def _verify(problem, result, form):
    """The one check of an answer, on its integer form (see ``_answer``)."""
    n = problem.n_vars
    cons = problem.constraints
    rows, scales, (cnums, cden) = _int_rows(problem)

    if isinstance(result, LPOptimal):
        xn, xd, vnum, vden, yn, yd = form
        if len(xn) != n or any(v < 0 for v in xn):
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
        if sum(map(mul, cnums, xn)) * vden != vnum * cden * xd:
            return False
        # Optimality: a dual y with the signs of the dual LP, A^T y >= c for
        # max (<= c for min), and b . y equal to the primal value.
        if len(yn) != len(cons):
            return False
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
        zn, zd = form
        if len(zn) != len(cons):
            return False
        for v, c in zip(zn, cons):
            if c.rel == LEQ and v > 0:
                return False
            if c.rel == GEQ and v < 0:
                return False
        combined, _ = _fold(list(zip(zn, scales, rows)), zd, n + 1)
        # On x >= 0 the combination forces (<= 0) > 0, a contradiction.
        return all(v <= 0 for v in combined[:n]) and combined[n] > 0

    rn, _ = form
    if len(rn) != n or any(v < 0 for v in rn) or not any(rn):
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
