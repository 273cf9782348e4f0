import random
from fractions import Fraction
from itertools import combinations

import pytest

from conedual import convex_sep, functionals, lp
from conedual.errors import MalformedProblem
from conedual.extreal import INF, ExtReal, ExtVec
from conedual.lp import (
    Constraint,
    LPInfeasible,
    LPOptimal,
    LPProblem,
    LPUnbounded,
    solve_lp,
    verify_lp_result,
)

F = Fraction


def _gauss_solve(M, rhs):
    """Independent exact solve used only by the oracle below."""
    n = len(M)
    aug = [list(row) + [r] for row, r in zip(M, rhs)]
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


def _satisfies(problem, x):
    if any(v < 0 for v in x):
        return False
    for c in problem.constraints:
        lhs = sum(a * v for a, v in zip(c.coeffs, x))
        if c.rel == "<=" and lhs > c.rhs:
            return False
        if c.rel == ">=" and lhs < c.rhs:
            return False
        if c.rel == "==" and lhs != c.rhs:
            return False
    return True


def feasible_vertices(problem):
    """Candidate basic points: every n-subset of tight hyperplanes.

    With all variables nonnegative the feasible region is pointed, so it is
    nonempty exactly when some candidate vertex is feasible.
    """
    n = problem.n_vars
    planes = [(tuple(c.coeffs), c.rhs) for c in problem.constraints]
    for j in range(n):
        axis = [F(0)] * n
        axis[j] = F(1)
        planes.append((tuple(axis), F(0)))
    vertices = []
    for subset in combinations(range(len(planes)), n):
        M = [planes[i][0] for i in subset]
        rhs = [planes[i][1] for i in subset]
        x = _gauss_solve(M, rhs)
        if x is not None and _satisfies(problem, x):
            vertices.append(tuple(x))
    return vertices


def test_unique_feasible_point():
    prob = LPProblem(
        2,
        (Constraint((1, 1), "==", 1), Constraint((2, 0), "<=", 1), Constraint((0, 2), "<=", 1)),
        (0, 0),
        "max",
    )
    res = solve_lp(prob)
    # a zero objective has the zero dual
    assert res == LPOptimal((F(1, 2), F(1, 2)), F(0), (F(0), F(0), F(0)))
    assert verify_lp_result(prob, res)


def test_contradictory_constraints_are_infeasible():
    prob = LPProblem(1, (Constraint((1,), "==", 1), Constraint((1,), "<=", 0)), (0,), "max")
    res = solve_lp(prob)
    assert isinstance(res, LPInfeasible)
    assert verify_lp_result(prob, res)


def test_unbounded_ray():
    prob = LPProblem(1, (Constraint((1,), ">=", 0),), (1,), "max")
    res = solve_lp(prob)
    assert res == LPUnbounded((F(1),))
    assert verify_lp_result(prob, res)


def test_optimum_value():
    # maximize x + 2y on the simplex: the best vertex is (0, 1)
    prob = LPProblem(2, (Constraint((1, 1), "==", 1),), (1, 2), "max")
    res = solve_lp(prob)
    assert isinstance(res, LPOptimal)
    assert res.value == 2


def test_minimization():
    prob = LPProblem(
        2,
        (Constraint((1, 1), "==", 1), Constraint((1, 0), ">=", F(1, 4))),
        (3, 1),
        "min",
    )
    res = solve_lp(prob)
    assert isinstance(res, LPOptimal)
    assert res.value == F(3, 2)
    assert res.point == (F(1, 4), F(3, 4))
    # min duals satisfy A^T y <= c with y >= 0 on the >= row: 1 + 1/4 * 2 = 3/2
    assert res.dual == (F(1), F(2))


def test_negative_rhs_rows():
    # -x <= -2 is x >= 2; minimize x
    prob = LPProblem(1, (Constraint((-1,), "<=", -2),), (1,), "min")
    res = solve_lp(prob)
    assert isinstance(res, LPOptimal)
    assert res.point == (F(2),)


def test_redundant_equalities_are_dropped():
    prob = LPProblem(
        2,
        (
            Constraint((1, 1), "==", 1),
            Constraint((2, 2), "==", 2),
            Constraint((1, 0), "<=", F(1, 3)),
        ),
        (1, 0),
        "max",
    )
    res = solve_lp(prob)
    assert isinstance(res, LPOptimal)
    assert res.value == F(1, 3)


def test_malformed_problems():
    with pytest.raises(MalformedProblem):
        LPProblem(0, (), (), "max")
    with pytest.raises(MalformedProblem):
        LPProblem(1, (), (1, 2), "max")
    with pytest.raises(MalformedProblem):
        LPProblem(1, (Constraint((1, 2), "<=", 1),), (1,), "max")
    with pytest.raises(MalformedProblem):
        Constraint((1,), "<", 1)
    with pytest.raises(MalformedProblem):
        Constraint((0.5,), "<=", 1)
    with pytest.raises(MalformedProblem):
        LPProblem(1, (), (1,), "maximize")


def test_verifier_rejects_tampered_certificates():
    prob = LPProblem(1, (Constraint((1,), "==", 1), Constraint((1,), "<=", 0)), (0,), "max")
    res = solve_lp(prob)
    bad = LPInfeasible(tuple(-v for v in res.certificate))
    assert not verify_lp_result(prob, bad)
    good_point = LPOptimal((F(1, 2),), F(0), (F(0),))
    assert not verify_lp_result(
        LPProblem(1, (Constraint((1,), "==", 1),), (0,), "max"), good_point
    )
    # tampered duals; max x + 2y on x + y <= 1, x <= 1/2, y >= 0: optimum (0, 1) with dual (2, 0)
    prob = LPProblem(
        2,
        (Constraint((1, 1), "<=", 1), Constraint((1, 0), "<=", F(1, 2)), Constraint((0, 1), ">=", 0)),
        (1, 2),
        "max",
    )
    res = solve_lp(prob)
    assert res == LPOptimal((F(0), F(1)), F(2), (F(2), F(0), F(0)))
    point, value = res.point, res.value
    # missing, or one multiplier short
    assert not verify_lp_result(prob, LPOptimal(point, value, None))
    assert not verify_lp_result(prob, LPOptimal(point, value, (F(2), F(0))))
    # wrongly signed: a <= row of a max problem needs y >= 0, a >= row y <= 0
    assert not verify_lp_result(prob, LPOptimal(point, value, (F(3), F(-1), F(0))))
    assert not verify_lp_result(prob, LPOptimal(point, value, (F(2), F(0), F(1))))
    # infeasible: A^T y >= c fails on the y column, although b . y == 2
    assert not verify_lp_result(prob, LPOptimal(point, value, (F(1), F(2), F(0))))
    # feasible but not optimal: b . y = 3 is only an upper bound
    assert not verify_lp_result(prob, LPOptimal(point, value, (F(3), F(0), F(0))))
    # a suboptimal point fails b . y == c . x against any dual
    assert not verify_lp_result(prob, LPOptimal((F(1, 2), F(1, 2)), F(3, 2), (F(2), F(0), F(0))))


def test_feasibility_agrees_with_vertex_enumeration():
    rng = random.Random(20240)
    agree = 0
    for _ in range(120):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        cons = [Constraint((F(1),) * n, "==", F(1))]
        for _ in range(m):
            coeffs = tuple(F(rng.randint(-4, 6), rng.randint(1, 4)) for _ in range(n))
            rel = rng.choice(("<=", ">=", "=="))
            rhs = F(rng.randint(-2, 4), rng.randint(1, 3))
            cons.append(Constraint(coeffs, rel, rhs))
        prob = LPProblem(n, tuple(cons), (F(0),) * n, "max")
        res = solve_lp(prob)
        assert verify_lp_result(prob, res)
        feasible = bool(feasible_vertices(prob))
        assert isinstance(res, LPOptimal) == feasible
        agree += 1
    assert agree == 120


def test_optimal_value_agrees_with_vertex_enumeration():
    rng = random.Random(777)
    for _ in range(60):
        n = rng.randint(1, 3)
        cons = [Constraint((F(1),) * n, "==", F(1))]
        for _ in range(rng.randint(0, 3)):
            coeffs = tuple(F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n))
            cons.append(Constraint(coeffs, "<=", F(rng.randint(1, 4), rng.randint(1, 2))))
        obj = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        prob = LPProblem(n, tuple(cons), obj, "max")
        res = solve_lp(prob)
        assert verify_lp_result(prob, res)
        vertices = feasible_vertices(prob)
        if not vertices:
            assert isinstance(res, LPInfeasible)
            continue
        # the region sits inside the simplex, so it is bounded and the
        # optimum is attained at a vertex
        best = max(sum(o * v for o, v in zip(obj, x)) for x in vertices)
        assert isinstance(res, LPOptimal)
        assert res.value == best


def test_determinism():
    prob = LPProblem(
        3,
        (
            Constraint((1, 1, 1), "==", 1),
            Constraint((2, 0, 1), "<=", 1),
            Constraint((0, 2, 1), "<=", 1),
        ),
        (1, 1, 0),
        "max",
    )
    first = solve_lp(prob)
    for _ in range(5):
        assert solve_lp(prob) == first


# ---------------------------------------------------------------------------
# Differential test against a reference solver.
#
# The reference is the earlier dense two-phase simplex over ``Fraction``:
# an artificial on every row, Bland's rule, and Farkas multipliers from a
# square solve of the final basis.  It lives only here, as the oracle the
# integer tableau in ``conedual.lp`` is compared against.


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


def reference_solve(problem):
    n = problem.n_vars
    cons = problem.constraints
    m = len(cons)
    obj = problem.objective
    obj_min = [-v for v in obj] if problem.sense == "max" else list(obj)
    n_slack = sum(1 for c in cons if c.rel != "==")
    width = n + n_slack

    A0, b0, flip = [], [], []
    s = n
    for c in cons:
        row = [F(0)] * width
        for j, v in enumerate(c.coeffs):
            row[j] = v
        if c.rel == "<=":
            row[s] = F(1)
            s += 1
        elif c.rel == ">=":
            row[s] = F(-1)
            s += 1
        rhs = c.rhs
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
            flip.append(F(-1))
        else:
            flip.append(F(1))
        A0.append(row)
        b0.append(rhs)

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
        return LPInfeasible(tuple(flip[i] * y[i] for i in range(m)))

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
        # dropped rows get zero, and the row flips and the sense are undone
        M = [[A0[i][col] for i in keep] for col in basis2]
        y = _gauss_solve(M, [cmin[col] for col in basis2]) if keep else []
        assert y is not None
        dual = [F(0)] * m
        sense = F(-1) if problem.sense == "max" else F(1)
        for pos, i in enumerate(keep):
            dual[i] = sense * flip[i] * y[pos]
        return LPOptimal(point, sum(o * p for o, p in zip(obj, point)), tuple(dual))
    ray = [F(0)] * width
    ray[status] = F(1)
    for i in range(m2):
        ray[basis2[i]] = -T2[i][status]
    return LPUnbounded(tuple(ray[:n]))


def _assert_agrees(prob):
    res = solve_lp(prob)
    ref = reference_solve(prob)
    assert verify_lp_result(prob, res)
    assert verify_lp_result(prob, ref)
    assert type(res) is type(ref)
    if isinstance(res, LPOptimal):
        assert res.value == ref.value
    return res


def _random_lp(rng):
    n = rng.randint(1, 4)
    small = (-3, -2, -1, 0, 0, 0, 1, 1, 2, 3)

    def entry():
        return F(rng.choice(small), rng.choice((1, 1, 1, 2, 3)))

    cons = []
    for _ in range(rng.randint(1, 5)):
        coeffs = tuple(entry() for _ in range(n))
        rel = rng.choice(("<=", "<=", ">=", ">=", "=="))
        rhs = F(rng.randint(-3, 4), rng.choice((1, 1, 2)))
        if rng.random() < 0.3:
            rhs = F(0)
        cons.append(Constraint(coeffs, rel, rhs))
    if rng.random() < 0.3:
        # a redundant equality: a nonzero multiple of another equality row
        base = rng.choice(cons)
        base = Constraint(base.coeffs, "==", base.rhs)
        factor = F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
        cons.append(base)
        cons.append(Constraint(tuple(factor * v for v in base.coeffs), "==", factor * base.rhs))
        rng.shuffle(cons)
    if rng.random() < 0.4:
        # a simplex row keeps many instances bounded and ties ratios at 1
        cons.insert(0, Constraint((F(1),) * n, "==", F(1)))
    obj = tuple(entry() for _ in range(n))
    return LPProblem(n, tuple(cons), obj, rng.choice(("max", "min")))


def test_differential_against_reference_solver():
    rng = random.Random(31337)
    seen = {LPOptimal: 0, LPInfeasible: 0, LPUnbounded: 0}
    for _ in range(300):
        res = _assert_agrees(_random_lp(rng))
        seen[type(res)] += 1
    # every outcome is exercised, not just the common one
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


def test_negative_pivot_while_driving_out_artificials(monkeypatch):
    # -x - y == 0 holds at the phase-1 start, so its artificial stays basic
    # at level zero and leaves on the entry -1.  Simplex pivots are always
    # positive, so a negative entry can only come from the drive-out.
    pivots = _spy_pivots(monkeypatch)
    prob = LPProblem(
        3,
        (
            Constraint((-1, -1, 0), "==", 0),
            Constraint((1, 1, 1), "<=", 3),
            Constraint((0, 1, 2), ">=", 1),
        ),
        (1, 1, 1),
        "max",
    )
    res = _assert_agrees(prob)
    assert any(p < 0 for p in pivots)
    assert res == LPOptimal((F(0), F(0), F(3)), F(3), (F(0), F(1), F(0)))


def test_redundant_rows_in_both_orientations_are_dropped():
    # The three equalities have rank one, so at least two artificials stay
    # basic on rows that became 0 = 0; the optimum is x = 1/3, y = 2/3.
    prob = LPProblem(
        2,
        (
            Constraint((1, 1), "==", 1),
            Constraint((-1, -1), "==", -1),
            Constraint((F(3, 2), F(3, 2)), "==", F(3, 2)),
            Constraint((1, 0), ">=", F(1, 3)),
        ),
        (-1, 0),
        "max",
    )
    res = _assert_agrees(prob)
    # the redundant rows carry zero multipliers; x >= 1/3 prices the optimum
    assert res == LPOptimal((F(1, 3), F(2, 3)), F(-1, 3), (F(0), F(0), F(0), F(-1)))


def test_unbounded_ray_through_a_basic_column():
    # x - y == 1 pins x to y, so the improving ray moves both together
    prob = LPProblem(2, (Constraint((1, -1), "==", 1),), (1, 1), "max")
    res = _assert_agrees(prob)
    assert res == LPUnbounded((F(1), F(1)))


def test_infeasible_with_slack_and_artificial_rows():
    # Row 0 needs an artificial; rows 1 and 2 start with their slacks.
    # Only a certificate using all three rows refutes the system.
    prob = LPProblem(
        2,
        (
            Constraint((1, 1), "==", 2),
            Constraint((1, 0), "<=", F(1, 2)),
            Constraint((0, 2), "<=", 1),
        ),
        (0, 0),
        "max",
    )
    res = _assert_agrees(prob)
    assert all(z != 0 for z in res.certificate)
    assert res.certificate[0] > 0


# ---------------------------------------------------------------------------
# The integer verifier against the Fraction verifier it replaced.
#
# ``fraction_verify`` is the earlier ``verify_lp_result``, which rechecked
# every answer in ``Fraction`` arithmetic.  It lives only here, as the oracle
# the integer recheck in ``conedual.lp`` is compared against on exact input.


def fraction_verify(problem, result):
    n = problem.n_vars
    cons = problem.constraints

    if isinstance(result, LPOptimal):
        x = result.point
        if len(x) != n or any(v < 0 for v in x):
            return False
        for c in cons:
            lhs = sum(a * v for a, v in zip(c.coeffs, x))
            if c.rel == "<=" and not lhs <= c.rhs:
                return False
            if c.rel == ">=" and not lhs >= c.rhs:
                return False
            if c.rel == "==" and lhs != c.rhs:
                return False
        if sum(o * v for o, v in zip(problem.objective, x)) != result.value:
            return False
        y = result.dual
        if y is None or len(y) != len(cons):
            return False
        flip = 1 if problem.sense == "max" else -1
        for yi, c in zip(y, cons):
            if c.rel == "<=" and flip * yi < 0:
                return False
            if c.rel == ">=" and flip * yi > 0:
                return False
        for j, cj in enumerate(problem.objective):
            if flip * (sum(yi * c.coeffs[j] for yi, c in zip(y, cons)) - cj) < 0:
                return False
        return sum(yi * c.rhs for yi, c in zip(y, cons)) == result.value

    if isinstance(result, LPInfeasible):
        z = result.certificate
        if len(z) != len(cons):
            return False
        for zi, c in zip(z, cons):
            if c.rel == "<=" and zi > 0:
                return False
            if c.rel == ">=" and zi < 0:
                return False
        combined_rhs = F(0)
        combined = [F(0)] * n
        for zi, c in zip(z, cons):
            if zi == 0:
                continue
            combined_rhs += zi * c.rhs
            for j, a in enumerate(c.coeffs):
                combined[j] += zi * a
        return all(v <= 0 for v in combined) and combined_rhs > 0

    if isinstance(result, LPUnbounded):
        r = result.ray
        if len(r) != n or any(v < 0 for v in r) or all(v == 0 for v in r):
            return False
        for c in cons:
            d = sum(a * v for a, v in zip(c.coeffs, r))
            if c.rel == "<=" and d > 0:
                return False
            if c.rel == ">=" and d < 0:
                return False
            if c.rel == "==" and d != 0:
                return False
        gain = sum(o * v for o, v in zip(problem.objective, r))
        return gain > 0 if problem.sense == "max" else gain < 0

    return False


def _differential_results():
    """(problem, result) for solve_lp and the reference on the 300-LP set."""
    rng = random.Random(31337)
    out = []
    for _ in range(300):
        prob = _random_lp(rng)
        out.append((prob, solve_lp(prob)))
        out.append((prob, reference_solve(prob)))
    return out


def _tampered_cases():
    """Every (problem, answer) pair of test_verifier_rejects_tampered_certificates."""
    prob = LPProblem(1, (Constraint((1,), "==", 1), Constraint((1,), "<=", 0)), (0,), "max")
    res = solve_lp(prob)
    cases = [(prob, res), (prob, LPInfeasible(tuple(-v for v in res.certificate)))]
    cases.append(
        (LPProblem(1, (Constraint((1,), "==", 1),), (0,), "max"), LPOptimal((F(1, 2),), F(0), (F(0),)))
    )
    prob = LPProblem(
        2,
        (Constraint((1, 1), "<=", 1), Constraint((1, 0), "<=", F(1, 2)), Constraint((0, 1), ">=", 0)),
        (1, 2),
        "max",
    )
    point, value = (F(0), F(1)), F(2)
    for dual in (
        (F(2), F(0), F(0)),
        None,
        (F(2), F(0)),
        (F(3), F(-1), F(0)),
        (F(2), F(0), F(1)),
        (F(1), F(2), F(0)),
        (F(3), F(0), F(0)),
    ):
        cases.append((prob, LPOptimal(point, value, dual)))
    cases.append((prob, LPOptimal((F(1, 2), F(1, 2)), F(3, 2), (F(2), F(0), F(0)))))
    return cases


def test_integer_verifier_agrees_with_fraction_verifier():
    cases = _differential_results() + _tampered_cases()
    verdicts = set()
    for prob, res in cases:
        verdict = verify_lp_result(prob, res)
        assert verdict == fraction_verify(prob, res), (prob, res)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _perturb(rng, result):
    """``result`` with one entry moved by +-1, +-1/7, or its sign flipped."""
    if isinstance(result, LPOptimal):
        field = rng.choice(("point", "value", "dual"))
    elif isinstance(result, LPInfeasible):
        field = "certificate"
    else:
        field = "ray"
    entries = getattr(result, field)
    scalar = field == "value"
    entries = [entries] if scalar else list(entries)
    k = rng.randrange(len(entries))
    v = entries[k]
    entries[k] = rng.choice((v + 1, v - 1, v + F(1, 7), v - F(1, 7), -v))
    new = entries[0] if scalar else tuple(entries)
    fields = {name: getattr(result, name) for name in result.__dataclass_fields__}
    fields[field] = new
    return type(result)(**fields)


def test_integer_verifier_agrees_on_perturbed_certificates():
    rng = random.Random(4242)
    counts = {True: 0, False: 0}
    for prob, res in _differential_results():
        for _ in range(3):
            bad = _perturb(rng, res)
            verdict = verify_lp_result(prob, bad)
            assert verdict == fraction_verify(prob, bad), (prob, bad)
            counts[verdict] += 1
    # a nudge can land on another valid certificate, and usually does not
    assert counts[True] > 0 and counts[False] > 0, counts


def test_verifier_rejects_inexact_certificate_entries():
    prob = LPProblem(
        2,
        (Constraint((1, 1), "<=", 1), Constraint((1, 0), "<=", F(1, 2)), Constraint((0, 1), ">=", 0)),
        (1, 2),
        "max",
    )
    assert verify_lp_result(prob, LPOptimal((0, 1), 2, (2, 0, 0)))
    # the Fraction recheck accepted floats and bools equal to a valid answer
    floats = LPOptimal((0.0, 1.0), 2.0, (2.0, 0.0, 0.0))
    assert fraction_verify(prob, floats)
    assert not verify_lp_result(prob, floats)
    assert not verify_lp_result(prob, LPOptimal((F(0), F(1)), 2.0, (F(2), F(0), F(0))))
    assert not verify_lp_result(prob, LPOptimal((False, True), F(2), (F(2), F(0), F(0))))
    assert not verify_lp_result(prob, LPOptimal((F(0), F(1)), F(2), (F(2), False, F(0))))
    assert not verify_lp_result(prob, LPOptimal((F(0), F(1)), True, (F(2), F(0), F(0))))
    assert not verify_lp_result(prob, LPOptimal(("0", F(1)), F(2), (F(2), F(0), F(0))))
    assert not verify_lp_result(prob, LPOptimal((F(0), F(1)), "2", (F(2), F(0), F(0))))
    assert not verify_lp_result(prob, LPOptimal((F(0), F(1)), F(2), ("2", F(0), F(0))))

    infeasible = LPProblem(1, (Constraint((1,), "==", 1), Constraint((1,), "<=", 0)), (0,), "max")
    cert = solve_lp(infeasible).certificate
    assert verify_lp_result(infeasible, LPInfeasible(cert))
    for bad in (float(cert[0]), str(cert[0]), True):
        assert not verify_lp_result(infeasible, LPInfeasible((bad,) + cert[1:]))

    unbounded = LPProblem(1, (Constraint((1,), ">=", 0),), (1,), "max")
    assert verify_lp_result(unbounded, LPUnbounded((1,)))
    for bad in (1.0, "1", True):
        assert not verify_lp_result(unbounded, LPUnbounded((bad,)))


def test_verifying_keeps_problem_equality_and_hash():
    def make():
        return LPProblem(
            2,
            (Constraint((1, F(1, 3)), "<=", F(5, 2)), Constraint((F(2, 7), 1), ">=", 0)),
            (1, F(1, 2)),
            "max",
        )

    first, second = make(), make()
    before = hash(first)
    assert verify_lp_result(first, solve_lp(first))
    assert first == second
    assert hash(first) == hash(second) == before
    assert repr(first) == repr(second)


# ---------------------------------------------------------------------------
# The condensed tableau against the full tableau it replaced.
#
# ``full_solve_lp`` is the earlier integer solver, whose tableau kept a
# column for every variable, the basic ``D * e_i`` columns and every
# artificial included.  It lives only here, as the oracle the condensed
# tableau in ``conedual.lp`` is compared against: same answers, same pivot
# entries, and rows exactly one entry shorter per constraint.  It is the
# earlier code with only a ``seen`` list threaded through, which collects
# ``(pivot entry, row length)`` for every pivot.


def _full_pivot(T, basis, D, pr, pc, seen):
    seen.append((T[pr][pc], len(T[pr])))
    prow = T[pr]
    p = prow[pc]
    if p < 0:
        p = -p
        T[pr] = prow = [-v for v in prow]
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


def _full_iterate(T, basis, D, m, limit, seen):
    while True:
        cost = T[m]
        pc = next((j for j in range(limit) if cost[j] < 0), None)
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
    n = problem.n_vars
    cons = problem.constraints
    m = len(cons)
    obj = problem.objective
    width = n + sum(1 for c in cons if c.rel != "==")

    rows, scales, (cnums, cden) = lp._int_rows(problem)
    T = []
    scale = []
    basis = []
    art_rows = []
    s = n
    for i, c in enumerate(cons):
        sign = -1 if c.rhs < 0 or (c.rel == ">=" and c.rhs == 0) else 1
        ints = rows[i] if sign > 0 else [-v for v in rows[i]]
        row = list(ints[:n]) + [0] * (width - n)
        if c.rel == "==":
            unit = 0
        else:
            unit = sign if c.rel == "<=" else -sign
            row[s] = unit
            s += 1
        if unit > 0:
            basis.append(s - 1)
        else:
            basis.append(None)
            art_rows.append(i)
        T.append(row + [ints[-1]])
        scale.append(sign * scales[i])

    k = len(art_rows)
    T = [row[:width] + [0] * k + row[width:] for row in T]
    for a, i in enumerate(art_rows):
        T[i][width + a] = 1
        basis[i] = width + a
    cost = [0] * (width + k + 1)
    for i in art_rows:
        cost = [d - v for d, v in zip(cost, T[i])]
    cost[width:width + k] = [0] * k
    T.append(cost)
    start = basis[:]

    D, status = _full_iterate(T, basis, 1, m, width, seen)
    assert status is None

    cost = T.pop()
    if cost[-1] < 0:
        cert = tuple(
            F(scale[i] * ((D if start[i] >= width else 0) - cost[start[i]]), D)
            for i in range(m)
        )
        return LPInfeasible(cert)

    for i in range(m):
        if basis[i] >= width:
            pc = next((j for j in range(width) if T[i][j]), None)
            if pc is not None:
                D = _full_pivot(T, basis, D, i, pc, seen)

    sign = -1 if problem.sense == "max" else 1
    cmin = [sign * v for v in cnums] + [0] * (width + k - n)
    cscale = sign * cden
    cost = [D * cj for cj in cmin] + [0]
    for b, row in zip(basis, T):
        cb = cmin[b]
        if cb:
            cost = [d - cb * v for d, v in zip(cost, row)]
    T.append(cost)

    D, status = _full_iterate(T, basis, D, m, width, seen)
    if status is None:
        point = [F(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                point[b] = F(T[i][-1], D)
        value = sum(o * p for o, p in zip(obj, point))
        dual = tuple(F(-scale[i] * T[m][start[i]], D * cscale) for i in range(m))
        return LPOptimal(tuple(point), value, dual)
    ray = [F(0)] * n
    if status < n:
        ray[status] = F(1)
    for i, b in enumerate(basis):
        if b < n:
            ray[b] = F(-T[i][status], D)
    return LPUnbounded(tuple(ray))


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
    """``solve_lp`` on ``prob`` against the oracle; returns the result."""
    seen.clear()
    res = solve_lp(prob)
    condensed = list(seen)
    full = []
    ref = full_solve_lp(prob, full)
    assert res == ref, (prob, res, ref)
    assert [p for p, _ in condensed] == [p for p, _ in full], prob
    m = len(prob.constraints)
    assert all(c == f - m for (_, c), (_, f) in zip(condensed, full)), prob
    return res, len(full)


def test_condensed_tableau_matches_full_tableau_on_the_differential_set(monkeypatch):
    seen = _spy_pivot_rows(monkeypatch)
    rng = random.Random(31337)
    outcomes = {LPOptimal: 0, LPInfeasible: 0, LPUnbounded: 0}
    pivots = 0
    for _ in range(300):
        res, count = _assert_same_as_full_tableau(_random_lp(rng), seen)
        outcomes[type(res)] += 1
        pivots += count
    assert all(count >= 20 for count in outcomes.values()), outcomes
    assert pivots > 300


def _capture_problems(monkeypatch, module):
    """Collect every LPProblem that ``module`` hands to ``solve_lp``."""
    problems = []

    def capture(problem):
        problems.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(module, "solve_lp", capture)
    return problems


def test_condensed_tableau_matches_full_tableau_on_separation_lps(monkeypatch):
    problems = _capture_problems(monkeypatch, convex_sep)
    rng = random.Random(8128)
    for _ in range(100):
        dim = rng.randint(2, 8)
        top = rng.choice((2, 3, 6, 12))
        gens = [
            ExtVec([ExtReal.from_fraction(F(rng.randint(0, top), rng.randint(1, 4)))
                    if rng.random() > 0.03 else INF
                    for _ in range(dim)])
            for _ in range(rng.randint(2, 16))
        ]
        convex_sep.separate(gens, dim)
    monkeypatch.undo()
    seen = _spy_pivot_rows(monkeypatch)
    outcomes = {LPOptimal: 0, LPInfeasible: 0}
    for prob in problems:
        res, _ = _assert_same_as_full_tableau(prob, seen)
        outcomes[type(res)] += 1
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
        res, _ = _assert_same_as_full_tableau(prob, seen)
        if res.value <= 0:
            held += 1
        else:
            violated += 1
    assert held >= 10 and violated >= 10, (held, violated)


def _fraction_row_separate(generators, dim):
    """``separate`` as it was when every generator row entered as the
    ``Fraction``s ``nums[i] / d`` with right-hand side 1: the reference."""
    gens = convex_sep._check_generators(generators, dim)
    forms = [g._form for g in gens]
    inf_mask = 0
    for form in forms:
        inf_mask |= form[2]
    inf_coords = [i for i in range(dim) if inf_mask >> i & 1]
    fin = [i for i in range(dim) if not inf_mask >> i & 1]
    if not fin:
        return convex_sep.MeetsCorner(convex_sep._cover_witness(gens, inf_coords))
    k = len(fin)
    constraints = [Constraint((1,) * k, "==", 1)]
    for nums, d, _, _ in forms:
        constraints.append(Constraint(tuple(F(nums[i], d) for i in fin), "<=", 1))
    res = solve_lp(LPProblem(k, tuple(constraints), (0,) * k, "max"))
    if isinstance(res, LPOptimal):
        full = [0] * dim
        for pos, i in enumerate(fin):
            full[i] = res.point[pos]
        return convex_sep.Separated(convex_sep.SeparationWeights(tuple(full)))
    w = [-z for z in res.certificate[1:]]
    witness = convex_sep._witness_from_certificate(gens, fin, inf_coords, w)
    return convex_sep.MeetsCorner(witness)


def _fraction_row_margin(gcoeffs, hcoeffs):
    """``_margin`` as it was when each pair row entered as the ``Fraction``
    differences ``g - h`` followed by ``(-1, 1)``: the reference."""
    dim = len(gcoeffs[0])
    k = len(hcoeffs)
    constraints = [Constraint((1,) * dim + (0, 0), "==", 1)]
    for gc in gcoeffs:
        for hc in hcoeffs:
            row = tuple(g - h for g, h in zip(gc, hc)) + (-1, 1)
            constraints.append(Constraint(row, ">=", 0))
    objective = (0,) * dim + (1, -1)
    res = solve_lp(LPProblem(dim + 2, tuple(constraints), objective, "max"))
    mu = [-v for v in res.dual[1:]]
    a = tuple(sum(mu[i * k:(i + 1) * k]) for i in range(len(gcoeffs)))
    lam = tuple(sum(mu[kk::k]) for kk in range(k))
    return res.value, res.point[:dim], a, lam


def _assert_rows_are_ints(problems):
    assert problems
    for prob in problems:
        for c in prob.constraints:
            assert all(type(v) is int for v in c.coeffs + (c.rhs,)), c


def test_public_constraints_still_hold_fractions():
    c = Constraint((1, 2), "<=", 3)
    assert all(type(v) is F for v in c.coeffs + (c.rhs,))
    assert c.coeffs == (F(1), F(2)) and c.rhs == F(3)


def test_integer_separation_rows_match_fraction_rows(monkeypatch):
    rng = random.Random(8128)
    cases = []
    for _ in range(120):
        dim = rng.randint(1, 7)
        top = rng.choice((2, 3, 6, 12))
        gens = [
            ExtVec([ExtReal.from_fraction(F(rng.randint(0, top), rng.randint(1, 4)))
                    if rng.random() > 0.05 else INF
                    for _ in range(dim)])
            for _ in range(rng.randint(1, 12))
        ]
        cases.append((gens, dim, _fraction_row_separate(gens, dim)))
    problems = _capture_problems(monkeypatch, convex_sep)
    kinds = {}
    for gens, dim, want in cases:
        got = convex_sep.separate(gens, dim)
        assert got == want, (gens, got, want)
        infinite = any(g._form[2] for g in gens)
        kinds[type(got), infinite] = kinds.get((type(got), infinite), 0) + 1
    _assert_rows_are_ints(problems)
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
    # and the rows leq_functional restricts to where every h_k is finite
    real = functionals._margin

    def record(gvecs, hvecs):
        calls.append(([[e.as_fraction() for e in g] for g in gvecs],
                      [[e.as_fraction() for e in h] for h in hvecs]))
        return real(gvecs, hvecs)

    monkeypatch.setattr(functionals, "_margin", record)
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
        got = functionals._margin([ExtVec(g) for g in gcoeffs], hcoeffs)
        assert got == want, (gcoeffs, hcoeffs, got, want)
        if got[0] <= 0:
            held += 1
        else:
            violated += 1
    _assert_rows_are_ints(problems)
    assert held >= 10 and violated >= 10, (held, violated)
