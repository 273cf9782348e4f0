"""The package's LP engine, on the integer rows that ``separate`` and the
margin LP build, ``(a_1, ..., a_n, b)`` with ``b >= 0``, each ``a . x <= b``:
seeded cross-checks against vertex enumeration, a ``Fraction`` reference
solver, a ``Fraction`` recheck of every answer and the full tableau, the
separation LP against its earlier ``sum w = 1`` formulation, the margin LP
against its earlier pair rows, the fields the traced benchmark reads, and
both callers' answers, pinned."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from conedual import combination_point, convex_sep, functionals, lp
from conedual.extreal import INF, ExtReal, ExtVec
from conedual.lp import LPOptimal, LPProblem, solve_lp

F = Fraction


def _ints(values):
    """``values``, ints or ``Fraction``s, times the lcm of their denominators."""
    den = lcm(*(F(v).denominator for v in values))
    return tuple(int(v * den) for v in values)


def problem(n, rows, objective):
    """Maximise ``objective``, its denominators cleared, subject to ``rows``,
    each ``(coeffs, rhs)`` read as ``coeffs . x <= rhs`` and entered with its
    denominators cleared."""
    return LPProblem(n, [_ints(tuple(c) + (rhs,)) for c, rhs in rows], _ints(objective))


def _dual(res):
    return tuple(F(v, res.d) for v in res.yn)


def _as_fractions(res):
    """An answer as the ``Fraction`` oracles below give theirs: the point,
    value and dual of an optimum after ``"optimal"``, or ``("unbounded",)``
    for ``None``."""
    if res is None:
        return ("unbounded",)
    return ("optimal", res.point, res.value, _dual(res))


def _solve(prob):
    """``solve_lp``'s answer, or None where it raised on an unbounded problem."""
    try:
        return solve_lp(prob)
    except AssertionError as exc:
        assert str(exc) == "internal error: the package's LPs cannot be unbounded"
        return None


def _optimal(point, value, dual):
    """A hand-built optimum, every entry over one common denominator."""
    d = lcm(*(F(v).denominator for v in (*point, value, *dual)))
    return LPOptimal([int(v * d) for v in point], int(value * d), [int(v * d) for v in dual], d)


def _gauss_solve(M, rhs):
    """Independent exact solve used only by the oracles below."""
    n = len(M)
    aug = [[F(v) for v in row] + [F(r)] for row, r in zip(M, rhs)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        d = aug[col][col]
        aug[col] = [v / d for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][-1] for i in range(n)]


def _satisfies(problem, x, tight):
    """True when ``x >= 0`` meets every row, the first ``tight`` of them with
    equality."""
    if any(v < 0 for v in x):
        return False
    for i, row in enumerate(problem.constraints):
        lhs = sum(a * v for a, v in zip(row, x))
        if lhs > row[-1] or (i < tight and lhs != row[-1]):
            return False
    return True


def feasible_vertices(problem, tight=0):
    """Candidate basic points: every n-subset of tight hyperplanes, kept when
    it meets the rows, the first ``tight`` of them read as equalities.

    With all variables nonnegative the feasible region is pointed, so it is
    nonempty exactly when some candidate vertex is feasible.
    """
    n = problem.n_vars
    planes = [(row[:n], row[n]) for row in problem.constraints]
    for j in range(n):
        axis = [0] * n
        axis[j] = 1
        planes.append((tuple(axis), 0))
    vertices = []
    for subset in combinations(range(len(planes)), n):
        M = [planes[i][0] for i in subset]
        rhs = [planes[i][1] for i in subset]
        x = _gauss_solve(M, rhs)
        if x is not None and _satisfies(problem, x, tight):
            vertices.append(tuple(x))
    return vertices


@pytest.mark.parametrize("prob", [
    LPProblem(1, [(-1, 0)], (1,)),
    # x - y <= 1 ties x to y, so the improving ray moves a basic column too
    LPProblem(2, [(1, -1, 1)], (1, 1)),
], ids=["a-nonbasic-column", "through-a-basic-column"])
def test_an_unbounded_problem_is_an_internal_error(prob):
    # neither of the package's LPs can be unbounded
    with pytest.raises(AssertionError, match="the package's LPs cannot be unbounded"):
        solve_lp(prob)


def test_optimum_value():
    # maximize x + 2y on the simplex: the best vertex is (0, 1)
    res = solve_lp(LPProblem(2, [(1, 1, 1)], (1, 2)))
    assert isinstance(res, LPOptimal)
    assert res.value == 2


@pytest.mark.parametrize("prob", [
    # -x <= -2, x >= 2, starts with its slack basic at -2, which no pivot repairs
    LPProblem(1, [(-1, -2)], (-1,)),
    # 0 <= -1 holds for no x, but its slack starts basic at -1
    LPProblem(1, [(0, -1)], (0,)),
], ids=["leq-row", "zero-row"])
def test_a_negative_right_hand_side_fails_verification(prob):
    # each row's b must be nonnegative; the checker catches the wrong answer
    with pytest.raises(AssertionError, match="solver output failed verification"):
        solve_lp(prob)


# Problems that once carried = rows, each written as <= rows with the
# objective that decides the question from the origin: the point, value and
# dual the solver gives, which the reference solver below confirms.
_LEQ_ONLY = [
    # x + y <= 1 with x, y <= 1/2 leaves the one point (1/2, 1/2) at x + y = 1
    ("unique-point", LPProblem(2, [(1, 1, 1), (2, 0, 1), (0, 2, 1)], (1, 1)),
     ((F(1, 2), F(1, 2)), 1, (1, 0, 0))),
    # x = 1 and x = 0 contradict: the largest x under both rows is 0 < 1
    ("contradictory-rows", LPProblem(1, [(1, 1), (1, 0)], (1,)),
     ((0,), 0, (0, 1))),
    # x + y <= 1 twice, once doubled
    ("a-redundant-row", LPProblem(2, [(1, 1, 1), (2, 2, 2), (3, 0, 1)], (1, 0)),
     ((F(1, 3), 0), F(1, 3), (0, 0, F(1, 3)))),
    # x + y = 0 as two opposite rows, both tight at the origin: a degenerate start
    ("an-equality-as-two-rows", LPProblem(3, [(-1, -1, 0, 0), (1, 1, 0, 0), (1, 1, 1, 3), (0, 1, 2, 7)],
                                          (1, 1, 1)),
     ((0, 0, 3), 3, (0, 0, 1, 0))),
    # x = y written three ways, rank one, all tight at the origin
    ("redundant-rows-in-both-orientations", LPProblem(2, [(1, -1, 0), (-1, 1, 0), (2, -2, 0), (1, 1, 2)], (1, 0)),
     ((1, 1), 1, (F(1, 2), 0, 0, F(1, 2)))),
    # x + y = 2 is out of reach under x, y <= 1/2: the optimum 1 < 2, priced by both bounds
    ("an-unreachable-sum", LPProblem(2, [(1, 1, 2), (2, 0, 1), (0, 2, 1)], (1, 1)),
     ((F(1, 2), F(1, 2)), 1, (0, F(1, 2), F(1, 2)))),
]


@pytest.mark.parametrize("prob, want", [case[1:] for case in _LEQ_ONLY], ids=[case[0] for case in _LEQ_ONLY])
def test_problems_that_once_needed_equalities_as_leq_rows(prob, want):
    assert _assert_agrees(prob) == ("optimal", *want)


def _tampered_cases():
    """(id, problem, answer, accepted) for the checker: solver answers, and
    certificates that a nudge made invalid."""
    # max -x - y on x + y <= 1 is 0 at the origin; the multiplier -1 would
    # price the point (1, 0) if the row were x + y = 1, but a <= row may not take it
    cases = [
        ("the-multiplier-of-an-equality-on-a-leq-row", LPProblem(2, [(1, 1, 1)], (-1, -1)),
         _optimal((1, 0), -1, (-1,)), False),
    ]
    # The separation LP of (3, 0) and (0, 3): max w1 + w2 with w1 + w2 <= 1
    # and 3 w_i <= 1 has the optimum 2/3 < 1 at (1/3, 1/3), and its dual
    # (0, 1/3, 1/3), read on the pairing rows, is the corner witness.
    prob = LPProblem(2, [(1, 1, 1), (3, 0, 1), (0, 3, 1)], (1, 1))
    res = solve_lp(prob)
    cases += [
        ("below-one-optimum-from-the-solver", prob, res, True),
        ("below-one-dual-negated", prob, LPOptimal(res.xn, res.vn, [-v for v in res.yn], res.d), False),
        # the solver's numerators over a negative denominator: every sign flipped
        ("below-one-over-a-negative-denominator", prob,
         LPOptimal(res.xn, res.vn, res.yn, -res.d), False),
        # the simplex row alone bounds the value by 1, not by the optimum 2/3
        ("below-one-dual-on-the-simplex-row", prob, _optimal((F(1, 3), F(1, 3)), F(2, 3), (1, 0, 0)), False),
        # a point in the simplex claimed as the optimum, off both pairing rows
        ("below-one-claimed-as-one", prob, _optimal((F(1, 2), F(1, 2)), 1, (1, 0, 0)), False),
    ]
    # max x + 2y on x + y <= 1, 2x <= 1, -y <= 0: optimum (0, 1) with dual (2, 0, 0)
    prob = LPProblem(2, [(1, 1, 1), (2, 0, 1), (0, -1, 0)], (1, 2))
    for name, point, value, dual, accepted in (
        ("optimum-with-its-dual", (0, 1), 2, (2, 0, 0), True),
        ("one-multiplier-short", (0, 1), 2, (2, 0), False),
        # wrongly signed: a <= row needs y >= 0, also where b is zero
        ("negative-multiplier-on-a-leq-row", (0, 1), 2, (3, -1, 0), False),
        ("negative-multiplier-on-a-zero-rhs-row", (0, 1), 2, (2, 0, -1), False),
        # infeasible: A^T y >= c fails on the y column, although b . y == 2
        ("dual-infeasible", (0, 1), 2, (1, 1, 0), False),
        # feasible but not optimal: b . y = 3 is only an upper bound
        ("dual-not-optimal", (0, 1), 2, (3, 0, 0), False),
        ("value-not-c-dot-x", (0, 1), 3, (2, 0, 0), False),
        # a suboptimal point fails b . y == c . x against any dual
        ("suboptimal-point", (F(1, 2), F(1, 2)), F(3, 2), (2, 0, 0), False),
    ):
        cases.append((name, prob, _optimal(point, value, dual), accepted))
    # x = -1 on -x <= 0, whose numerator passes the row and x >= 0 over the
    # negative denominator
    cases.append(("point-over-a-negative-denominator",
                  LPProblem(1, [(-1, 0)], (0,)), LPOptimal([1], 0, [0], -1), False))
    return cases


_TAMPERED = _tampered_cases()


@pytest.mark.parametrize("prob, res, accepted", [case[1:] for case in _TAMPERED],
                         ids=[case[0] for case in _TAMPERED])
def test_verifier_rejects_tampered_certificates(prob, res, accepted):
    assert lp._verify(prob, res) is accepted


def test_feasibility_agrees_with_vertex_enumeration():
    # max sum x under sum x <= 1 reaches 1 exactly when the rows leave a
    # point of the simplex: the question separate asks, from the origin
    rng = random.Random(20240)
    seen = {True: 0, False: 0}
    for _ in range(120):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        cons = [((1,) * n, 1)]
        for _ in range(m):
            # negative coefficients too, as b >= 0 allows
            coeffs = tuple(F(rng.randint(-4, 6), rng.randint(1, 4)) for _ in range(n))
            rhs = F(rng.randint(0, 4), rng.randint(1, 3)) if rng.random() < 0.7 else F(0)
            cons.append((coeffs, rhs))
        prob = problem(n, cons, (1,) * n)
        res = solve_lp(prob)
        feasible = bool(feasible_vertices(prob, tight=1))
        assert (res.value == 1) == feasible
        assert res.value <= 1
        seen[feasible] += 1
    assert min(seen.values()) >= 20, seen


def test_optimal_value_agrees_with_vertex_enumeration():
    rng = random.Random(777)
    for _ in range(60):
        n = rng.randint(1, 3)
        cons = [((1,) * n, 1)]
        for _ in range(rng.randint(0, 3)):
            coeffs = tuple(F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n))
            cons.append((coeffs, F(rng.randint(1, 4), rng.randint(1, 2))))
        prob = problem(n, cons, [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])
        res = solve_lp(prob)
        # the region holds the origin and sits inside the simplex, so it is
        # bounded and the optimum is attained at a vertex
        best = max(sum(o * v for o, v in zip(prob.objective, x)) for x in feasible_vertices(prob))
        assert res.value == best


def test_determinism():
    prob = LPProblem(3, [(1, 1, 1, 1), (2, 0, 1, 1), (0, 2, 1, 1)], (1, 1, 0))
    first = _as_fractions(solve_lp(prob))
    for _ in range(5):
        assert _as_fractions(solve_lp(prob)) == first


# ---------------------------------------------------------------------------
# Differential test against a reference solver.
#
# The reference is the earlier dense two-phase simplex over ``Fraction``:
# an artificial on every row, Bland's rule, and Farkas multipliers from a
# square solve of the final basis.  It still reads its first
# ``equalities`` rows as ``a . x = b``, so it also solves the separation
# LP's earlier ``sum w = 1`` formulation.  It lives only here, as the
# oracle the integer tableau in ``conedual.lp`` is compared against.


def _reference_pivot(T, basis, pr, pc):
    p = T[pr][pc]
    if p != 1:
        T[pr] = [v / p for v in T[pr]]
    prow = T[pr]
    for r in range(len(T)):
        if r == pr:
            continue
        f = T[r][pc]
        if f:
            row = T[r]
            T[r] = [a - f * b if b else a for a, b in zip(row, prow)]
    basis[pr] = pc


def _reference_iterate(T, basis, m, limit):
    while True:
        cost = T[m]
        pc = None
        for j in range(limit):
            if cost[j] < 0:
                pc = j
                break
        if pc is None:
            return None
        pr = None
        best = None
        for i in range(m):
            t = T[i][pc]
            if t > 0:
                ratio = T[i][-1] / t
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pr]):
                    best = ratio
                    pr = i
        if pr is None:
            return pc
        _reference_pivot(T, basis, pr, pc)


def reference_solve(problem, equalities=0):
    """The answer in the layout of ``_as_fractions``, with the first
    ``equalities`` rows read as ``a . x = b``: ``("infeasible", z)`` with
    Farkas multipliers ``z``, one per row, and ``("unbounded", ray)`` with
    the ray of an unbounded problem."""
    n = problem.n_vars
    cons = problem.constraints
    m = len(cons)
    obj = problem.objective
    obj_min = [-F(v) for v in obj]
    n_slack = m - equalities
    width = n + n_slack

    A0, b0 = [], []
    s = n
    for i, c in enumerate(cons):
        row = [F(0)] * width
        for j, v in enumerate(c[:n]):
            row[j] = F(v)
        if i >= equalities:
            row[s] = F(1)
            s += 1
        A0.append(row)
        b0.append(F(c[n]))

    T = []
    for i in range(m):
        unit = [F(0)] * m
        unit[i] = F(1)
        T.append(A0[i][:] + unit + [b0[i]])
    basis = [width + i for i in range(m)]
    cost = []
    for j in range(width + m + 1):
        direct = F(1) if width <= j < width + m else F(0)
        cost.append(direct - sum(T[i][j] for i in range(m)))
    T.append(cost)

    assert _reference_iterate(T, basis, m, limit=width) is None
    if sum(T[i][-1] for i in range(m) if basis[i] >= width) > 0:
        M, rhs = [], []
        for r in range(m):
            col = basis[r]
            if col < width:
                M.append([A0[c][col] for c in range(m)])
                rhs.append(F(0))
            else:
                unit = [F(0)] * m
                unit[col - width] = F(1)
                M.append(unit)
                rhs.append(F(1))
        y = _gauss_solve(M, rhs)
        assert y is not None
        return ("infeasible", tuple(y))

    drop = set()
    for i in range(m):
        if basis[i] >= width:
            pc = next((j for j in range(width) if T[i][j] != 0), None)
            if pc is None:
                drop.add(i)
            else:
                _reference_pivot(T, basis, i, pc)

    keep = [i for i in range(m) if i not in drop]
    rows2 = [T[i][:width] + [T[i][-1]] for i in keep]
    basis2 = [basis[i] for i in keep]
    m2 = len(rows2)
    cmin = obj_min + [F(0)] * n_slack
    cost2 = []
    for j in range(width + 1):
        direct = cmin[j] if j < width else F(0)
        cost2.append(direct - sum(cmin[basis2[i]] * rows2[i][j] for i in range(m2)))
    T2 = rows2 + [cost2]

    status = _reference_iterate(T2, basis2, m2, limit=width)
    if status is None:
        xstd = [F(0)] * width
        for i in range(m2):
            xstd[basis2[i]] = T2[i][-1]
        point = tuple(xstd[:n])
        # the simplex multipliers solve B^T y = c_B over the kept rows;
        # dropped rows get zero, and the minimisation is undone
        M = [[A0[i][col] for i in keep] for col in basis2]
        y = _gauss_solve(M, [cmin[col] for col in basis2]) if keep else []
        assert y is not None
        dual = [F(0)] * m
        for pos, i in enumerate(keep):
            dual[i] = -y[pos]
        return ("optimal", point, sum(o * p for o, p in zip(obj, point)), tuple(dual))
    ray = [F(0)] * width
    ray[status] = F(1)
    for i in range(m2):
        ray[basis2[i]] = -T2[i][status]
    return ("unbounded", tuple(ray[:n]))


def _farkas_refutes(problem, equalities, z):
    """True when the multipliers ``z``, none positive on a ``<=`` row,
    combine the rows into ``(something <= 0) > 0`` on ``x >= 0``, the first
    ``equalities`` rows read as ``a . x = b``: the reference's proof of
    infeasibility."""
    n = problem.n_vars
    cons = problem.constraints
    if len(z) != len(cons) or any(v > 0 for v in z[equalities:]):
        return False
    combined = [sum(v * c[j] for v, c in zip(z, cons)) for j in range(n + 1)]
    return all(v <= 0 for v in combined[:n]) and combined[n] > 0


def _is_improving_ray(problem, ray):
    """True when ``x + t * ray`` stays feasible for every t >= 0 and raises
    the objective: the reference's proof of unboundedness."""
    if any(v < 0 for v in ray) or not any(ray):
        return False
    for c in problem.constraints:
        if sum(a * v for a, v in zip(c, ray)) > 0:
            return False
    return sum(o * v for o, v in zip(problem.objective, ray)) > 0


def _assert_agrees(prob):
    res = _solve(prob)
    ref = reference_solve(prob)
    got = _as_fractions(res)
    assert got[0] == ref[0], (got, ref)
    if ref[0] == "unbounded":
        assert _is_improving_ray(prob, ref[1])
    else:
        # the reference's optimum passes the same check as the solver's
        assert lp._verify(prob, _optimal(*ref[1:]))
        assert got[2] == ref[2]
    return got


def _random_lp(rng):
    """A small LP from ``Fraction`` rows, each entered with its denominators
    cleared, every right-hand side nonnegative; a drawn ``min`` maximises
    the negated objective."""
    n = rng.randint(1, 4)
    small = (-3, -2, -1, 0, 0, 0, 1, 1, 2, 3)

    def entry():
        return F(rng.choice(small), rng.choice((1, 1, 1, 2, 3)))

    cons = []
    for _ in range(rng.randint(1, 5)):
        coeffs = tuple(entry() for _ in range(n))
        rhs = F(rng.randint(0, 4), rng.choice((1, 1, 2)))
        if rng.random() < 0.3:
            rhs = F(0)
        cons.append((coeffs, rhs))
    if rng.random() < 0.3:
        # a redundant row, a positive multiple of another; where the
        # right-hand side is zero, its negation too, which with it pins a . x = 0
        coeffs, rhs = rng.choice(cons)
        factor = F(rng.choice((1, 3)), rng.choice((1, 2)))
        cons.append((tuple(factor * v for v in coeffs), factor * rhs))
        if rhs == 0:
            cons.append((tuple(-v for v in coeffs), rhs))
        rng.shuffle(cons)
    if rng.random() < 0.4:
        # a simplex row keeps many instances bounded and ties ratios at 1
        cons.insert(0, ((F(1),) * n, F(1)))
    obj = tuple(entry() for _ in range(n))
    if rng.choice(("max", "min")) == "min":
        obj = tuple(-v for v in obj)
    return problem(n, cons, obj)


def test_differential_against_reference_solver():
    rng = random.Random(31337)
    seen = {"optimal": 0, "unbounded": 0}
    for _ in range(300):
        seen[_assert_agrees(_random_lp(rng))[0]] += 1
    # both outcomes are exercised, not just the common one
    assert all(count >= 20 for count in seen.values()), seen


def _spy_pivots(monkeypatch):
    """Record the pivot entry of every integer pivot the solver makes."""
    pivots = []
    real = lp._pivot

    def spy(T, basis, D, pr, pc):
        pivots.append(T[pr][pc])
        return real(T, basis, D, pr, pc)

    monkeypatch.setattr(lp, "_pivot", spy)
    return pivots


# ---------------------------------------------------------------------------
# The integer checker against a ``Fraction`` recheck.
#
# ``fraction_verify`` rechecks an answer's ``Fraction`` values, as the
# verifier once did.  It lives only here, as the oracle the integer check in
# ``conedual.lp`` is compared against.


def fraction_verify(problem, result):
    n = problem.n_vars
    cons = problem.constraints
    if result.d <= 0:
        return False
    x = [F(v, result.d) for v in result.xn]
    if len(x) != n or any(v < 0 for v in x):
        return False
    for c in cons:
        if not sum(a * v for a, v in zip(c, x)) <= c[n]:
            return False
    value = F(result.vn, result.d)
    if sum(o * v for o, v in zip(problem.objective, x)) != value:
        return False
    y = _dual(result)
    if len(y) != len(cons) or any(yi < 0 for yi in y):
        return False
    for j, cj in enumerate(problem.objective):
        if sum(yi * c[j] for yi, c in zip(y, cons)) < cj:
            return False
    return sum(yi * c[n] for yi, c in zip(y, cons)) == value


def _differential_results():
    """(problem, result) for solve_lp and the reference on the 300-LP set,
    leaving out the unbounded ones, which have no answer to check."""
    rng = random.Random(31337)
    out = []
    for _ in range(300):
        prob = _random_lp(rng)
        ref = reference_solve(prob)
        if ref[0] != "unbounded":
            out.append((prob, solve_lp(prob)))
            out.append((prob, _optimal(*ref[1:])))
    return out


def test_integer_verifier_agrees_with_fraction_verifier():
    cases = _differential_results() + [(prob, res) for _, prob, res, _ in _TAMPERED]
    verdicts = set()
    for prob, res in cases:
        verdict = lp._verify(prob, res)
        assert verdict == fraction_verify(prob, res), (prob, _as_fractions(res))
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _perturb(rng, result):
    """``result`` with one entry moved by +-1 or +-1/d, or its sign flipped."""
    fields = {"xn": list(result.xn), "vn": [result.vn], "yn": list(result.yn)}
    entries = fields[rng.choice(sorted(fields))]
    k = rng.randrange(len(entries))
    v, d = entries[k], result.d
    entries[k] = rng.choice((v + d, v - d, v + 1, v - 1, -v))
    return LPOptimal(fields["xn"], fields["vn"][0], fields["yn"], d)


def _scaled(result, k):
    """``result`` with every numerator and its denominator times ``k``: the
    same rationals over a denominator that is not the lcm, as ``solve_lp``'s
    ``D`` is not."""
    return LPOptimal([k * v for v in result.xn], k * result.vn, [k * v for v in result.yn], k * result.d)


def test_integer_verifier_agrees_on_perturbed_certificates():
    rng = random.Random(4242)
    counts = {True: 0, False: 0}
    for prob, res in _differential_results():
        for _ in range(3):
            bad = _perturb(rng, res)
            verdict = lp._verify(prob, bad)
            assert verdict == fraction_verify(prob, bad), (prob, _as_fractions(bad))
            assert lp._verify(prob, _scaled(bad, 6)) == verdict
            counts[verdict] += 1
    # a nudge can land on another valid certificate, and usually does not
    assert counts[True] > 0 and counts[False] > 0, counts


# ---------------------------------------------------------------------------
# The condensed tableau against the full tableau it replaced.
#
# ``full_solve_lp`` is the earlier integer solver, whose tableau kept a
# column for every variable, the basic ``D * e_i`` columns included, on
# the rows the package builds today, all ``<=``.  It lives only here, as
# the oracle the condensed tableau in ``conedual.lp`` is compared against:
# same answers, same pivot entries, and rows exactly one entry shorter per
# constraint.  A ``seen`` list threaded through collects ``(pivot entry,
# row length)`` for every pivot.


def _full_pivot(T, basis, D, pr, pc, seen):
    seen.append((T[pr][pc], len(T[pr])))
    prow = T[pr]
    p = prow[pc]
    for r in range(len(T)):
        if r == pr:
            continue
        row = T[r]
        f = row[pc]
        if f:
            T[r] = [(p * a - f * b) // D for a, b in zip(row, prow)]
        elif p != D:
            T[r] = [p * a // D for a in row]
    basis[pr] = pc
    return p


def _full_iterate(T, basis, D, m, seen):
    while True:
        cost = T[m]
        pc = next((j for j in range(len(cost) - 1) if cost[j] < 0), None)
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
        D = _full_pivot(T, basis, D, pr, pc, seen)


def full_solve_lp(problem, seen):
    """The answer in the layout of ``_as_fractions``."""
    n = problem.n_vars
    cons = problem.constraints
    m = len(cons)
    obj = problem.objective

    # row i's slack is variable n + i, basic from the start
    T = [list(c[:n]) + [int(i == j) for j in range(m)] + [c[n]] for i, c in enumerate(cons)]
    basis = list(range(n, n + m))
    T.append([-v for v in obj] + [0] * (m + 1))

    D, status = _full_iterate(T, basis, 1, m, seen)
    if status is None:
        point = [F(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                point[b] = F(T[i][-1], D)
        value = sum(o * p for o, p in zip(obj, point))
        dual = tuple(F(T[m][n + i], D) for i in range(m))
        return ("optimal", tuple(point), value, dual)
    return ("unbounded",)


def _spy_pivot_rows(monkeypatch):
    """Record ``(pivot entry, row length)`` of every pivot the solver makes."""
    seen = []
    real = lp._pivot

    def spy(T, basis, D, pr, pc):
        seen.append((T[pr][pc], len(T[pr])))
        return real(T, basis, D, pr, pc)

    monkeypatch.setattr(lp, "_pivot", spy)
    return seen


def _assert_same_as_full_tableau(prob, seen):
    """``solve_lp`` on ``prob`` against the oracle; returns the answer in the
    layout of ``_as_fractions`` and the oracle's pivot count."""
    seen.clear()
    got = _as_fractions(_solve(prob))
    condensed = list(seen)
    full = []
    ref = full_solve_lp(prob, full)
    assert got == ref, (got, ref)
    assert [p for p, _ in condensed] == [p for p, _ in full]
    m = len(prob.constraints)
    assert all(c == f - m for (_, c), (_, f) in zip(condensed, full))
    return got, len(full)


def test_condensed_tableau_matches_full_tableau_on_the_differential_set(monkeypatch):
    seen = _spy_pivot_rows(monkeypatch)
    rng = random.Random(31337)
    outcomes = {"optimal": 0, "unbounded": 0}
    pivots = 0
    entries = []
    for _ in range(300):
        got, count = _assert_same_as_full_tableau(_random_lp(rng), seen)
        outcomes[got[0]] += 1
        pivots += count
        entries += [p for p, _ in seen]
    assert all(count >= 20 for count in outcomes.values()), outcomes
    # every pivot is a simplex pivot, on a positive entry
    assert pivots >= 200 and min(entries) > 0, (pivots, min(entries))


def _capture_problems(monkeypatch, module):
    """Collect every LPProblem that ``module`` hands to ``solve_lp``."""
    problems = []

    def capture(problem):
        problems.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(module, "solve_lp", capture)
    return problems


def _separation_instances(rng, count, dims, sizes, inf_rate):
    cases = []
    for _ in range(count):
        dim = rng.randint(*dims)
        top = rng.choice((2, 3, 6, 12))
        gens = [
            ExtVec([ExtReal(F(rng.randint(0, top), rng.randint(1, 4)))
                    if rng.random() > inf_rate else INF
                    for _ in range(dim)])
            for _ in range(rng.randint(*sizes))
        ]
        cases.append((gens, dim))
    return cases


def test_condensed_tableau_matches_full_tableau_on_separation_lps(monkeypatch):
    problems = _capture_problems(monkeypatch, convex_sep)
    # every instance reaches the LP, the screens' answers included
    monkeypatch.setattr(convex_sep, "_screen", lambda gens, dim, fin: None)
    for gens, dim in _separation_instances(random.Random(8128), 100, (2, 8), (2, 16), 0.03):
        convex_sep.separate(gens, dim)
    monkeypatch.undo()
    seen = _spy_pivot_rows(monkeypatch)
    outcomes = {"separated": 0, "meets": 0}
    for prob in problems:
        got, _ = _assert_same_as_full_tableau(prob, seen)
        outcomes["separated" if got[2] == 1 else "meets"] += 1
    # both a separation and a meet of the corner
    assert all(count >= 20 for count in outcomes.values()), outcomes


def test_condensed_tableau_matches_full_tableau_on_margin_lps(monkeypatch):
    problems = _capture_problems(monkeypatch, functionals)
    rng = random.Random(496)
    for _ in range(80):
        dim = rng.randint(1, 5)

        def rows(count):
            return [[F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(dim)] for _ in range(count)]

        functionals._margin(rows(rng.randint(1, 4)), rows(rng.randint(1, 4)))
    monkeypatch.undo()
    seen = _spy_pivot_rows(monkeypatch)
    held = violated = 0
    for prob in problems:
        got, _ = _assert_same_as_full_tableau(prob, seen)
        if got[2] <= 0:
            held += 1
        else:
            violated += 1
    assert held >= 10 and violated >= 10, (held, violated)


# ---------------------------------------------------------------------------
# The separation LP against its earlier formulation.
#
# ``separate`` once asked for weights with ``sum w = 1``, an equality that
# needed a phase 1 and Farkas multipliers when it failed.  Its LP now
# maximises ``sum w`` under ``sum w <= 1`` from the origin, the same LP as
# that phase 1.  The earlier formulation is solved here by the reference.


def _earlier_formulation(prob):
    """The separation LP ``prob`` as it once was: its simplex row, row 0,
    read as ``sum w = 1``, and a zero objective."""
    return reference_solve(LPProblem(prob.n_vars, prob.constraints, (0,) * prob.n_vars), equalities=1)


def test_a_separation_optimum_is_below_one_exactly_when_the_simplex_formulation_is_infeasible(monkeypatch):
    problems = _capture_problems(monkeypatch, convex_sep)
    # every instance reaches the LP, the screens' answers included
    monkeypatch.setattr(convex_sep, "_screen", lambda gens, dim, fin: None)
    with_inf = 0
    for gens, dim in _separation_instances(random.Random(6174), 150, (2, 7), (2, 14), 0.08):
        before = len(problems)
        convex_sep.separate(gens, dim)
        with_inf += len(problems) > before and any(g._form[2] for g in gens)
    monkeypatch.undo()
    outcomes = {True: 0, False: 0}
    for prob in problems:
        res = solve_lp(prob)
        old = _earlier_formulation(prob)
        below = res.value < 1
        assert below == (old[0] == "infeasible"), (prob.constraints, res.value, old)
        if below:
            assert _farkas_refutes(prob, 1, old[1])
            # the dual's multipliers on the pairing rows are not all zero,
            # so they normalise to the corner witness
            assert any(res.yn[1:])
        else:
            assert old[0] == "optimal" and sum(old[1]) == 1 and sum(res.point) == 1
        outcomes[below] += 1
    # both verdicts, and instances with inf entries among those the LP decided
    assert min(outcomes.values()) >= 20 and with_inf >= 20, (outcomes, with_inf)


def test_every_pivot_of_both_callers_is_positive(monkeypatch):
    pivots = _spy_pivots(monkeypatch)
    # every instance reaches the LP, the screens' answers included
    monkeypatch.setattr(convex_sep, "_screen", lambda gens, dim, fin: None)
    monkeypatch.setattr(functionals, "_screen", lambda gvecs, hvecs: None)
    for gens, dim in _separation_instances(random.Random(2718), 60, (2, 7), (2, 14), 0.08):
        convex_sep.separate(gens, dim)
    separations = len(pivots)
    rng = random.Random(1618)
    for _ in range(60):
        dim = rng.randint(1, 5)

        def rows(count):
            return [ExtVec([ExtReal(F(rng.randint(0, 9), rng.randint(1, 3))) for _ in range(dim)])
                    for _ in range(count)]

        functionals._margin(rows(rng.randint(1, 4)), rows(rng.randint(1, 4)))
    margins = len(pivots) - separations
    assert separations >= 100 and margins >= 100, (separations, margins)
    assert min(pivots) > 0


def test_the_fields_the_traced_benchmark_reads(monkeypatch):
    # perfbench/run.py counts the LPs by their class names, sizes them by
    # len(problem.constraints) * problem.n_vars, and reads the bit length
    # of the point Fractions; perfbench/spans.py wraps solve_lp where each
    # caller binds it at module level
    assert convex_sep.solve_lp is functionals.solve_lp is lp.solve_lp
    separations = _capture_problems(monkeypatch, convex_sep)
    margins = _capture_problems(monkeypatch, functionals)
    # the hull of (2, 0), (0, 2) misses the corner and that of (3, 0), (0, 3)
    # meets it; y <= 2 y holds on y >= 0, a margin LP of value 0
    assert type(convex_sep._separation_lp([ExtVec([2, 0]), ExtVec([0, 2])], 2, [0, 1], [])) \
        is convex_sep.Separated
    assert type(convex_sep._separation_lp([ExtVec([3, 0]), ExtVec([0, 3])], 2, [0, 1], [])) \
        is convex_sep.MeetsCorner
    functionals._margin([ExtVec([1])], [ExtVec([2])])
    problems = separations + margins
    assert len(problems) == 3
    results = [solve_lp(prob) for prob in problems]
    assert [type(r).__name__ for r in results] == ["LPOptimal"] * 3
    for prob in problems:
        assert type(prob.n_vars) is int and len(prob.constraints) * prob.n_vars > 0
    fields = [r.point for r in results]
    for values in fields:
        assert type(values) is tuple and all(type(v) is F for v in values)
    assert max(max(v.numerator.bit_length(), v.denominator.bit_length())
               for values in fields for v in values) > 0
    assert results[0].point == (F(1, 2), F(1, 2)) and results[0].value == 1
    assert results[1].point == (F(1, 3), F(1, 3)) and results[1].value == F(2, 3)
    assert results[2].value == 0


def _oracle_witness_from_certificate(gens, fin, inf_coords, w):
    """``convex_sep._witness_from_certificate`` as it was, summing each finite
    coordinate of the base and cover points from ``as_fraction`` entries in
    ``Fraction``: the reference."""
    total = sum(w)
    base = {j: wj / total for j, wj in enumerate(w) if wj > 0}
    if not inf_coords:
        return tuple(sorted(base.items()))
    cover = sorted({next(j for j, g in enumerate(gens) if g[i].is_infinite) for i in inf_coords})
    cover = [(j, F(1, len(cover))) for j in cover]
    eps = F(1, 2)
    for i in fin:
        x = sum(mu * gens[j][i].as_fraction() for j, mu in base.items())
        y = sum(share * gens[j][i].as_fraction() for j, share in cover)
        if y < x:
            eps = min(eps, (x - 1) / (x - y) / 2)
    combo = {j: mu * (1 - eps) for j, mu in base.items()}
    for j, share in cover:
        combo[j] = combo.get(j, 0) + eps * share
    return tuple(sorted((j, v) for j, v in combo.items() if v > 0))


def test_witness_builder_matches_the_fraction_reference():
    rng = random.Random(3001)
    mixed = 0
    for _ in range(600):
        dim = rng.randint(1, 7)
        gens = [
            ExtVec([INF if rng.random() < 0.15 else
                    ExtReal(rng.getrandbits(70), rng.getrandbits(70) | 1) if rng.random() < 0.1
                    else ExtReal(rng.randint(0, 20), rng.randint(1, 6))
                    for _ in range(dim)])
            for _ in range(rng.randint(1, 8))
        ]
        inf_mask = 0
        for g in gens:
            inf_mask |= g._form[2]
        inf_coords = [i for i in range(dim) if inf_mask >> i & 1]
        fin = [i for i in range(dim) if not inf_mask >> i & 1]
        w = [F(rng.randint(0, 9), rng.randint(1, 5)) for _ in gens]
        if not any(w):
            w[0] = F(1)
        # the builder's premise, which a round below one and the play's stop both give:
        # the multipliers' mix is above one at every finite coordinate
        base = combination_point(gens, [(j, v / sum(w)) for j, v in enumerate(w)])
        if not all(base[i] > 1 for i in fin):
            continue
        # and its multipliers are integers, as the LP and the play give them
        scale = lcm(*(v.denominator for v in w))
        got = convex_sep._witness_from_certificate(gens, fin, inf_coords, [int(v * scale) for v in w])
        assert got == _oracle_witness_from_certificate(gens, fin, inf_coords, w)
        mixed += bool(inf_coords and fin)
    assert mixed >= 200, mixed


def _fraction_row_margin(gcoeffs, hcoeffs):
    """``_margin`` with each branch row ``(h, -1, 1, 0)`` and each member row
    ``(-g, 1, -1, 1)`` in ``Fraction``s, over ``(y, u+, u-, t)``, entered with
    that row's own denominators cleared, ``s`` times larger, so its
    multiplier is ``s`` times the dual: the reference."""
    dim = len(gcoeffs[0])
    k = len(hcoeffs)
    rows = [tuple(F(h) for h in hc) + (F(-1), F(1), F(0)) for hc in hcoeffs]
    rows += [tuple(-F(g) for g in gc) + (F(1), F(-1), F(1)) for gc in gcoeffs]
    constraints = [(1,) * dim + (0, 0, 0, 1)]
    scales = []
    for row in rows:
        s = lcm(*(v.denominator for v in row))
        constraints.append(tuple(int(v * s) for v in row) + (0,))
        scales.append(s)
    res = solve_lp(LPProblem(dim + 3, constraints, (0,) * (dim + 2) + (1,)))
    mult = [s * v for s, v in zip(scales, _dual(res)[1:])]
    total = sum(mult[k:])
    return res.value, res.point[:dim], tuple(v / total for v in mult[k:]), tuple(v / total for v in mult[:k])


def _simplex_margin(gcoeffs, hcoeffs):
    """The largest margin t with (h_k - g_i) . y + t <= 0 over the simplex
    sum y = 1, t = tp - tm free, solved by the reference: an independent
    formulation whose phase 1 must first reach the simplex.  The oracle for
    verdicts and values."""
    dim = len(gcoeffs[0])
    cons = [((1,) * dim + (0, 0), 1)]
    for gc in gcoeffs:
        for hc in hcoeffs:
            cons.append((tuple(F(h) - F(g) for g, h in zip(gc, hc)) + (1, -1), 0))
    ref = reference_solve(problem(dim + 2, cons, (0,) * dim + (1, -1)), equalities=1)
    assert ref[0] == "optimal", ref
    return ref[2]


def _assert_rows_are_ints(problems):
    """Every row ``n_vars + 1`` ints, its right-hand side nonnegative."""
    assert problems
    for prob in problems:
        assert all(type(v) is int for v in prob.objective)
        for c in prob.constraints:
            assert len(c) == prob.n_vars + 1 and all(type(v) is int for v in c), c
            assert c[-1] >= 0, c


def test_separation_lps_agree_with_the_reference_solver(monkeypatch):
    cases = _separation_instances(random.Random(8128), 120, (1, 7), (1, 12), 0.05)
    problems = _capture_problems(monkeypatch, convex_sep)
    # every instance reaches the LP, the screens' answers included
    monkeypatch.setattr(convex_sep, "_screen", lambda gens, dim, fin: None)
    kinds = {}
    for gens, dim in cases:
        got = convex_sep.separate(gens, dim)
        infinite = any(g._form[2] for g in gens)
        kinds[type(got), infinite] = kinds.get((type(got), infinite), 0) + 1
    _assert_rows_are_ints(problems)
    # every LP of every round: the reference's verdict and value, and an
    # answer that the Fraction recheck accepts
    for prob in problems:
        _assert_agrees(prob)
        assert fraction_verify(prob, solve_lp(prob))
    # both outcomes, with and without infinite coordinates
    assert len(kinds) == 4 and min(kinds.values()) >= 5, kinds


def test_integer_margin_rows_match_fraction_rows(monkeypatch):
    rng = random.Random(496)
    calls = []
    for _ in range(80):
        dim = rng.randint(1, 5)

        def rows(count):
            return [[F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(dim)]
                    for _ in range(count)]

        calls.append((rows(rng.randint(1, 4)), rows(rng.randint(1, 4))))
    # and the rows _decide restricts to where every h_k is finite, through leq_functional
    real = functionals._margin

    def record(gvecs, hvecs):
        calls.append(([[e.as_fraction() for e in g] for g in gvecs],
                      [[e.as_fraction() for e in h] for h in hvecs]))
        return real(gvecs, hvecs)

    monkeypatch.setattr(functionals, "_margin", record)
    # every restricted pair reaches the LP, the screens' answers included
    monkeypatch.setattr(functionals, "_screen", lambda gvecs, hvecs: None)
    rng = random.Random(97)
    restricted = 0
    for _ in range(150):
        dim = rng.randint(2, 4)

        def fun():
            return [INF if rng.random() < 0.15 else F(rng.randint(0, 6), rng.randint(1, 3))
                    for _ in range(dim)]

        before = len(calls)
        functionals.leq_functional(
            functionals.SuperlinFun([fun() for _ in range(rng.randint(1, 3))]),
            functionals.SublinFun([fun() for _ in range(rng.randint(1, 3))]),
        )
        restricted += len(calls) > before and len(calls[-1][0][0]) < dim
    monkeypatch.undo()
    assert restricted >= 10, restricted

    problems = _capture_problems(monkeypatch, functionals)
    held = violated = 0
    for gcoeffs, hcoeffs in calls:
        want = _fraction_row_margin(gcoeffs, hcoeffs)
        value, y, a, lam = functionals._margin([ExtVec(g) for g in gcoeffs], hcoeffs)
        got = value, tuple(y), tuple(a), tuple(lam)
        assert got == want, (gcoeffs, hcoeffs, got, want)
        t = _simplex_margin(gcoeffs, hcoeffs)
        # the same verdict, and the same value where the order fails
        assert got[0] == max(t, 0), (gcoeffs, hcoeffs, got[0], t)
        if got[0] == 0:
            held += 1
            assert sum(got[2]) == 1 and sum(got[3]) == 1
        else:
            violated += 1
            assert sum(got[1]) == 1
    _assert_rows_are_ints(problems)
    assert all(fraction_verify(prob, solve_lp(prob)) for prob in problems)
    assert held >= 10 and violated >= 10, (held, violated)
    assert len(problems) == len(calls)


# ---------------------------------------------------------------------------
# The margin LP against its earlier formulation.
#
# ``_margin`` once wrote one row per pair ``(g_i, h_k)``, ``(h_k - g_i) . y +
# t <= 0`` over the lcm of the two denominators, and summed the pair
# multipliers into the weights.  It now writes one row per branch and one
# per member around a level ``u``, and its dual is the weights.  The pair
# rows are solved here as the reference for the value.


def _pair_row_value(gvecs, hvecs):
    """The optimum of ``_margin``'s LP as it once was, one row per pair."""
    gforms = [g._form for g in gvecs]
    hforms = [h._form for h in hvecs]
    dim = len(gforms[0][0])
    constraints = [(1,) * dim + (0, 1)]
    for gn, gd, _, _ in gforms:
        for hn, hd, _, _ in hforms:
            L = lcm(gd, hd)
            constraints.append(tuple(h * (L // hd) - g * (L // gd) for g, h in zip(gn, hn)) + (L, 0))
    return solve_lp(LPProblem(dim + 1, constraints, (0,) * dim + (1,))).value


def _spy_margins(monkeypatch):
    """Record each ``_margin`` call as its vectors, its answer and the
    ``(rows, variables)`` of every LP it hands to ``solve_lp``."""
    shapes, calls = [], []
    real = functionals._margin

    def solve(problem):
        shapes.append((len(problem.constraints), problem.n_vars))
        return solve_lp(problem)

    def margin(gvecs, hvecs):
        before = len(shapes)
        answer = real(gvecs, hvecs)
        calls.append((gvecs, hvecs, answer, shapes[before:]))
        return answer

    monkeypatch.setattr(functionals, "solve_lp", solve)
    monkeypatch.setattr(functionals, "_margin", margin)
    return calls


def _assert_margin_answer(gvecs, hvecs, answer, shapes):
    """One LP, a row per member, per branch and for the simplex over ``y``,
    ``u+``, ``u-`` and ``t``; simplex weights; on a zero value sum_i a_i g_i
    <= sum_k lambda_k h_k coordinatewise, otherwise a point of the simplex."""
    value, y, a, lam = answer
    dim = gvecs[0].dim
    assert shapes == [(len(gvecs) + len(hvecs) + 1, dim + 3)], shapes
    for w in (a, lam):
        assert all(v >= 0 for v in w) and sum(w) == 1, w
    if value == 0:
        for j in range(dim):
            left = sum(w * g[j].as_fraction() for w, g in zip(a, gvecs))
            assert left <= sum(w * h[j].as_fraction() for w, h in zip(lam, hvecs)), (j, a, lam)
    else:
        assert value > 0 and sum(y) == 1, answer


def test_margin_lp_value_matches_the_pair_row_formulation(monkeypatch):
    calls = _spy_margins(monkeypatch)
    # every instance reaches the LP, the screens' answers included
    monkeypatch.setattr(functionals, "_screen", lambda gvecs, hvecs: None)
    rng = random.Random(3571)
    kinds = {}
    for inf_rate in (0, 0.1):
        for _ in range(150):
            dim = rng.randint(1, 6)

            def fun():
                return [INF if rng.random() < inf_rate else F(rng.randint(0, 9), rng.randint(1, 4))
                        for _ in range(dim)]

            before = len(calls)
            functionals.leq_functional(
                functionals.SuperlinFun([fun() for _ in range(rng.randint(1, 6))]),
                functionals.SublinFun([fun() for _ in range(rng.randint(1, 6))]),
            )
            for gvecs, hvecs, answer, shapes in calls[before:]:
                _assert_margin_answer(gvecs, hvecs, answer, shapes)
                assert answer[0] == _pair_row_value(gvecs, hvecs), (gvecs, hvecs, answer)
                key = answer[0] > 0, inf_rate > 0
                kinds[key] = kinds.get(key, 0) + 1
    # both verdicts, on finite vectors and on those restricted where every h_k is finite
    assert len(kinds) == 4 and min(kinds.values()) >= 20, kinds


def test_margin_lp_decides_twenty_members_against_twenty_branches_in_ten_dimensions(monkeypatch):
    calls = _spy_margins(monkeypatch)
    rng = random.Random(6765)
    verdicts = []
    for _ in range(20):

        def fun(low, top):
            return [F(rng.randint(low, top), rng.randint(1, 4)) for _ in range(10)]

        low = rng.randint(3, 6)
        phi = functionals.SuperlinFun([fun(low, 11) for _ in range(20)])
        psi = functionals.SublinFun([fun(0, 9) for _ in range(20)])
        ok, y = functionals.leq_functional(phi, psi)
        assert ok or psi.eval(y) < phi.eval(y)
        verdicts.append(ok)
    monkeypatch.undo()
    for call in calls:
        _assert_margin_answer(*call)
    # no screen answers these, and both verdicts come up
    assert len(calls) == 20 and len(set(verdicts)) == 2, (len(calls), verdicts)


# ---------------------------------------------------------------------------
# Both callers' answers, pinned.


def _answer_form(res):
    """An answer's integer form, ``(xn, vn, yn, d)``."""
    return (tuple(res.xn), res.vn, tuple(res.yn), res.d)


def test_the_answers_of_both_callers_are_pinned(monkeypatch):
    answers = {}
    for module in (convex_sep, functionals):
        seen = answers[module.__name__] = []

        def solve(problem, seen=seen):
            res = solve_lp(problem)
            seen.append(_answer_form(res))
            return res

        monkeypatch.setattr(module, "solve_lp", solve)
    pivots = _spy_pivots(monkeypatch)
    rng = random.Random(1861)

    def entry(top, inf_rate):
        return INF if rng.random() < inf_rate else ExtReal(F(rng.randint(0, top), rng.randint(1, 4)))

    outcomes = {}
    for _ in range(100):
        dim = rng.randint(2, 6)
        top = rng.choice((2, 3, 6))
        gens = [ExtVec([entry(top, 0.05) for _ in range(dim)]) for _ in range(rng.randint(dim, 4 * dim))]
        key = type(convex_sep.separate(gens, dim)), any(g._form[2] for g in gens)
        outcomes[key] = outcomes.get(key, 0) + 1
    for _ in range(200):
        dim = rng.randint(2, 5)

        def branches():
            return [[entry(9, 0.1) for _ in range(dim)] for _ in range(rng.randint(1, 5))]

        gb, hb = branches(), branches()
        ok, _ = functionals.leq_functional(functionals.SuperlinFun(gb), functionals.SublinFun(hb))
        key = ok, any(e is INF for b in gb + hb for e in b)
        outcomes[key] = outcomes.get(key, 0) + 1
    for _ in range(40):
        # hulls at the boundary, which fictitious play may leave to the LP: each
        # generator is large at one coordinate, so the mix lam / sum(lam) is
        # just above one there (the hull meets the corner) or just below it
        dim = rng.randint(2, 4)
        lam = [rng.randint(1, 5) for _ in range(dim)]
        side = rng.choice((1, -1))
        gens = [ExtVec([F(sum(lam), lam[k]) * (1 + F(side, rng.randint(20, 200))) if i == k else 0
                        for i in range(dim)]) for k in range(dim)]
        convex_sep.separate(gens, dim)
    # both verdicts of each, with and without inf entries
    assert len(outcomes) == 8 and min(outcomes.values()) >= 3, outcomes
    # the separation LPs reach both an optimum of one and one below it
    assert {vn == d for _, vn, _, d in answers["conedual.convex_sep"]} == {True, False}
    assert [len(seen) for seen in answers.values()] == [20, 21]
    assert len(pivots) == 215
    digest = hashlib.sha256(repr(sorted(answers.items())).encode()).hexdigest()
    assert digest == "3e9d93d3f189b08f7adf474cd42f488469f8d2e7308c7c244853c6fdb1a9ccf5"
