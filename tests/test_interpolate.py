import importlib
import random
from fractions import Fraction

import pytest

from conedual import (
    INF,
    ExtReal,
    ExtVec,
    LinFun,
    Separated,
    SublinFun,
    SuperlinFun,
    check_min_below,
    clause_witnesses,
    dominated_by_max,
    interpolate,
    member_a,
    separate,
)
from conedual.errors import (
    EmptyList,
    InfiniteCoefficient,
    MalformedProblem,
    PreconditionViolated,
)

F = Fraction


def _rand_point(rng, dim, inf_chance=8):
    entries = []
    for _ in range(dim):
        if inf_chance and rng.randrange(inf_chance) == 0:
            entries.append(INF)
        else:
            entries.append(ExtReal(rng.randint(0, 8), rng.randint(1, 4)))
    return ExtVec(entries)


def test_check_min_below_examples():
    ok, wit = check_min_below(SuperlinFun([[2, 0], [0, 2]]), SublinFun([[1, 1]]))
    assert ok and wit is None
    ok, wit = check_min_below(SuperlinFun([[3, 3]]), SublinFun([[1, 1]]))
    assert not ok
    # the witness refutes the hypothesis exactly
    assert SublinFun([[1, 1]]).eval(wit) < SuperlinFun([[3, 3]]).eval(wit)
    g = SuperlinFun([[2, 5]])
    ok, _ = check_min_below(g, SublinFun([[2, 5]]))
    assert ok


def test_check_min_below_rejects_infinite_coefficients():
    with pytest.raises(InfiniteCoefficient):
        check_min_below(SuperlinFun([[INF, 0]]), SublinFun([[1, 1]]))


def test_interpolate_unique_weights():
    # half and half is the only simplex point with 2a1 <= 1 and 2a2 <= 1
    result = interpolate(SuperlinFun([[2, 0], [0, 2]]), SublinFun([[1, 1]]))
    assert result.weights == (F(1, 2), F(1, 2))
    assert result.certificate == (F(1),)


def test_interpolate_singleton_clause():
    result = interpolate(SuperlinFun([[3, 1]]), SublinFun([[3, 1]]))
    assert result.weights == (F(1),)
    assert result.certificate == (F(1),)


def test_interpolate_slack_instance_returns_valid_basic_solution():
    result = interpolate(SuperlinFun([[2, 0], [0, 2]]), SublinFun([[2, 2]]))
    a = result.weights
    assert sum(a) == 1 and all(v >= 0 for v in a)
    assert result.certificate == (F(1),)
    # every simplex point works here; determinism is what matters
    again = interpolate(SuperlinFun([[2, 0], [0, 2]]), SublinFun([[2, 2]]))
    assert again.weights == a


def test_interpolate_precondition_violated():
    with pytest.raises(PreconditionViolated) as info:
        interpolate(SuperlinFun([[3, 3]]), SublinFun([[1, 1]]))
    wit = info.value.witness
    assert wit is not None
    assert SublinFun([[1, 1]]).eval(wit) < SuperlinFun([[3, 3]]).eval(wit)


def test_sandwich_holds_everywhere_sampled():
    rng = random.Random(13)
    gs = [LinFun([3, 0, 1]), LinFun([0, 3, 1]), LinFun([1, 1, 2])]
    phi = SublinFun([[2, 2, 2], [1, 2, 3]])
    ok, _ = check_min_below(gs, phi)
    assert ok
    result = interpolate(gs, phi)
    low = SuperlinFun(gs)
    gcoeffs = [g.fraction_coeffs() for g in gs]
    mid = LinFun(
        [
            ExtReal.from_fraction(sum(a * gc[j] for a, gc in zip(result.weights, gcoeffs)))
            for j in range(3)
        ]
    )
    for _ in range(300):
        y = _rand_point(rng, 3)
        lo, md, hi = low.eval(y), mid.eval(y), phi.eval(y)
        assert lo <= md <= hi


def test_weighted_average_dominates_min():
    rng = random.Random(31)
    for _ in range(40):
        dim = rng.randint(1, 4)
        n = rng.randint(1, 4)
        gs = [
            LinFun([ExtReal(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(dim)])
            for _ in range(n)
        ]
        raw = [rng.randint(0, 5) for _ in range(n)]
        if not any(raw):
            raw[0] = 1
        total = sum(raw)
        weights = [F(v, total) for v in raw]
        gcoeffs = [g.fraction_coeffs() for g in gs]
        mix = LinFun(
            [
                ExtReal.from_fraction(sum(a * gc[j] for a, gc in zip(weights, gcoeffs)))
                for j in range(dim)
            ]
        )
        low = SuperlinFun(gs)
        for _ in range(10):
            y = _rand_point(rng, dim)
            assert low.eval(y) <= mix.eval(y)


def test_certificate_is_checkable_without_the_solver():
    gs = [LinFun([4, 0]), LinFun([0, 4]), LinFun([2, 2])]
    phi = SublinFun([[3, 1], [1, 3]])
    ok, _ = check_min_below(gs, phi)
    assert ok
    result = interpolate(gs, phi)
    gcoeffs = [g.fraction_coeffs() for g in gs]
    hcoeffs = [h.fraction_coeffs() for h in phi.branches]
    assert sum(result.weights) == 1
    assert sum(result.certificate) == 1
    for j in range(2):
        left = sum(a * gc[j] for a, gc in zip(result.weights, gcoeffs))
        right = sum(l * hc[j] for l, hc in zip(result.certificate, hcoeffs))
        assert left <= right


def test_clause_witnesses_examples():
    ws = clause_witnesses([[0, 1]], [LinFun([2, 0]), LinFun([0, 2])], SublinFun([[1, 1]]))
    assert len(ws) == 1
    assert ws[0].fun == LinFun([1, 1])
    assert ws[0].weights == (F(1, 2), F(1, 2))

    ws = clause_witnesses([[0]], [LinFun([3, 2])], SublinFun([[3, 2]]))
    assert ws[0].fun == LinFun([3, 2])

    gens = [LinFun([2, 0]), LinFun([0, 2]), LinFun([1, 1])]
    ws = clause_witnesses([[0, 1], [2]], gens, SublinFun([[1, 1]]))
    assert [w.fun for w in ws] == [LinFun([1, 1]), LinFun([1, 1])]


def test_clause_witnesses_reproduce_phi_when_clauses_cover_it():
    # singleton clauses for every branch make the witnesses reach phi itself
    rng = random.Random(37)
    gens = [LinFun([2, 1, 0]), LinFun([0, 2, 1]), LinFun([1, 1, 1])]
    phi = SublinFun([g.coeffs for g in gens])
    clauses = [[0], [1], [2], [0, 1, 2]]
    ws = clause_witnesses(clauses, gens, phi)
    tops = SublinFun([w.fun.coeffs for w in ws])
    for _ in range(150):
        y = _rand_point(rng, 3)
        assert tops.eval(y) == phi.eval(y)


def test_clause_witnesses_validation_and_errors():
    gens = [LinFun([1, 1])]
    with pytest.raises(MalformedProblem):
        clause_witnesses([[1]], gens, SublinFun([[1, 1]]))
    with pytest.raises(EmptyList):
        clause_witnesses([[]], gens, SublinFun([[1, 1]]))
    with pytest.raises(PreconditionViolated) as info:
        clause_witnesses([[0], [0]], [LinFun([5, 5])], SublinFun([[1, 1]]))
    assert info.value.clause_index == 0


def test_image_vectors_of_dominated_points_avoid_the_corner():
    # points below phi map under the clause evaluations to hull points the
    # separation routine keeps away from the corner, and its weights bound
    # the mixed evaluation by one at those points
    rng = random.Random(43)
    gs = [LinFun([3, 0]), LinFun([0, 3]), LinFun([2, 2])]
    phi = SublinFun([[2, 1], [1, 2]])
    ok, _ = check_min_below(gs, phi)
    assert ok
    sampled = []
    while len(sampled) < 12:
        y = _rand_point(rng, 2, inf_chance=0)
        if member_a(phi, y):
            sampled.append(y)
    images = [ExtVec([g.eval(y) for g in gs]) for y in sampled]
    out = separate(images, len(gs))
    assert isinstance(out, Separated)
    for y, img in zip(sampled, images):
        total = ExtReal(0)
        for a, v in zip(out.weights, img):
            total = total + ExtReal.from_fraction(a) * v
        assert total <= ExtReal(1)
        low = SuperlinFun(gs).eval(y)
        assert low <= total


def test_witness_stays_below_phi_by_independent_check():
    gens = [LinFun([2, 0]), LinFun([0, 2]), LinFun([1, 1])]
    phi = SublinFun([[2, 1], [1, 2]])
    ws = clause_witnesses([[0, 1, 2]], gens, phi)
    ok, lam = dominated_by_max(ws[0].fun, phi)
    assert ok
    assert sum(lam) == 1


def test_clause_witnesses_solve_one_lp_per_clause(monkeypatch):
    # every module that binds the solver is spied on, so an LP anywhere in
    # the pipeline is counted (the package attribute ``interpolate`` is the
    # function, so the modules come from importlib)
    calls = []
    for name in ("convex_sep", "functionals", "interpolate"):
        mod = importlib.import_module(f"conedual.{name}")
        real = getattr(mod, "solve_lp", None)
        if real is not None:
            def spy(problem, real=real):
                calls.append(problem)
                return real(problem)

            monkeypatch.setattr(mod, "solve_lp", spy)
    gens = [LinFun([2, 0]), LinFun([0, 2]), LinFun([1, 1]), LinFun([1, 0])]
    phi = SublinFun([[2, 1], [1, 2]])
    clauses = [[0, 1, 2], [3], [0, 1], [2]]
    ws = clause_witnesses(clauses, gens, phi)
    assert len(ws) == len(clauses)
    assert len(calls) == len(clauses)


def _fold_covered(coeffs, lam, hcoeffs):
    """The Fraction fold the integer check replaced: the reference."""
    return all(
        c <= sum(lk * hc[j] for lk, hc in zip(lam, hcoeffs)) for j, c in enumerate(coeffs)
    )


def _fold_mix(a, gcoeffs):
    dim = len(gcoeffs[0])
    return [sum(ai * gc[j] for ai, gc in zip(a, gcoeffs)) for j in range(dim)]


def _rand_fraction(rng):
    if rng.randrange(6) == 0:
        return F(rng.getrandbits(70), rng.getrandbits(70) | 1)
    return F(rng.randint(0, 12), rng.randint(1, 9))


def test_integer_coordinatewise_checks_match_fraction_folds():
    from conedual.functionals import _combine, _covered

    rng = random.Random(31)
    verdicts = set()
    for _ in range(1500):
        dim, k = rng.randint(1, 6), rng.randint(1, 4)
        weights = [_rand_fraction(rng) for _ in range(k)]
        rows = [tuple(_rand_fraction(rng) for _ in range(dim)) for _ in range(k)]
        nums, den = _combine(weights, [ExtVec(r) for r in rows])
        mix = [F(n, den) for n in nums]
        want = _fold_mix(weights, rows)
        assert mix == want
        assert [(m.numerator, m.denominator) for m in mix] == [
            (w.numerator, w.denominator) for w in want
        ]
        # coordinates at, just above and just below the combination
        coeffs = [m + rng.choice((0, 0, F(1, 10**6), -min(m, F(1, 10**6)))) for m in mix]
        got = _covered(ExtVec(coeffs), weights, [ExtVec(r) for r in rows])
        assert got == _fold_covered(coeffs, weights, rows)
        verdicts.add((got, coeffs == mix))
    assert verdicts == {(True, True), (True, False), (False, False)}
