import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from conedual import (
    INF,
    ONE,
    ZERO,
    DualFunctional,
    ExtReal,
    ExtVec,
    FinitePoset,
    LscFun,
    SimpleValuation,
    ValuationOnOpens,
    all_opens,
    check_dominated_directed,
    check_sup_representation,
    eval_valuation,
    ext_min,
    from_opens,
    is_lsc,
    parse_extreal,
    posets_up_to_iso,
    random_simple_valuation,
    recover_function,
    to_opens,
)
from conedual.errors import (
    ConeDualError,
    DimensionMismatch,
    EmptyList,
    NotAValuation,
    NotLSC,
    PosetMismatch,
    TooLarge,
    UndefinedDifference,
)

SIGMA = FinitePoset(2, [(0, 1)])
CHAIN2 = SIGMA


def _monotone(poset, raw):
    n = poset.n
    return [
        max((raw[z] for z in range(n) if poset.leq(z, x)), default=raw[x])
        for x in range(n)
    ]


def _steps(f):
    """The steps r * 1_U, one per nonzero level r of f with U = {f >= r},
    ascending; their pointwise supremum is f."""
    levels = sorted({v for v in f.values if not v.is_zero})
    return [LscFun(f.poset, [r if r <= v else ZERO for v in f.values]) for r in levels]


def test_evaluation_examples():
    f = LscFun(SIGMA, [1, 2])
    assert eval_valuation(SimpleValuation.dirac(SIGMA, 1), f) == ExtReal(2)
    assert eval_valuation(SimpleValuation(SIGMA, [3, 2]), f) == ExtReal(7)
    zero_at_weighted = eval_valuation(SimpleValuation(SIGMA, [INF, 0]), LscFun(SIGMA, [0, 1]))
    assert zero_at_weighted == ZERO
    with pytest.raises(PosetMismatch):
        eval_valuation(SimpleValuation(FinitePoset(2, []), [1, 1]), f)


def test_evaluation_is_linear():
    rng = random.Random(4)
    for n in range(1, 5):
        for poset in posets_up_to_iso(n):
            for _ in range(8):
                mu = random_simple_valuation(rng, poset)
                f = LscFun(poset, _monotone(poset, [ExtReal(rng.randint(0, 5)) for _ in range(n)]))
                g = LscFun(poset, _monotone(poset, [ExtReal(rng.randint(0, 5)) for _ in range(n)]))
                r = ExtReal(rng.randint(0, 4), rng.randint(1, 3))
                f_plus_g = LscFun(poset, f._vec + g._vec)
                assert eval_valuation(mu, f_plus_g) == eval_valuation(mu, f) + eval_valuation(mu, g)
                assert eval_valuation(mu, LscFun(poset, f._vec.scale(r))) == r * eval_valuation(mu, f)


def test_evaluation_preserves_finite_increasing_sups():
    rng = random.Random(9)
    for poset in posets_up_to_iso(3):
        for _ in range(10):
            mu = random_simple_valuation(rng, poset)
            chain = []
            current = LscFun(poset, [ZERO] * poset.n)
            for _ in range(4):
                bump = LscFun(
                    poset,
                    _monotone(poset, [ExtReal(rng.randint(0, 3)) for _ in range(poset.n)]),
                )
                current = LscFun(poset, current._vec + bump._vec)
                chain.append(current)
            values = [eval_valuation(mu, f) for f in chain]
            assert eval_valuation(mu, chain[-1]) == max(values)


def test_weakstar_membership_examples():
    assert ONE < eval_valuation(SimpleValuation.dirac(SIGMA, 1), LscFun(SIGMA, [0, 2]))
    assert not ONE < eval_valuation(SimpleValuation.dirac(SIGMA, 0), LscFun(SIGMA, [0, 2]))
    assert not ONE < eval_valuation(SimpleValuation(SIGMA, [0, 0]), LscFun(SIGMA, [5, 5]))


def test_mobius_examples():
    nu = ValuationOnOpens(CHAIN2, {0b00: 0, 0b10: 2, 0b11: 5})
    mu = from_opens(nu)
    assert mu.weights == (ExtReal(3), ExtReal(2))

    dirac = SimpleValuation.dirac(SIGMA, 0)
    table = to_opens(dirac)
    for mask, value in table.items():
        assert value == (ONE if mask & 1 else ZERO)

    with pytest.raises(UndefinedDifference):
        from_opens(ValuationOnOpens(CHAIN2, {0b00: 0, 0b10: INF, 0b11: INF}))


def test_mobius_round_trips_exhaustive_small():
    values = [ZERO, ONE, ExtReal(2), ExtReal(3)]
    for n in range(1, 5):
        for poset in posets_up_to_iso(n):
            for weights in product(values, repeat=n):
                mu = SimpleValuation(poset, weights)
                nu = to_opens(mu)
                assert from_opens(nu) == mu
                assert to_opens(from_opens(nu)) == nu


def test_to_opens_table_passes_the_full_validation():
    # to_opens builds its table without validating it; the validating
    # constructor accepts it unchanged, infinite weights included
    rng = random.Random(2718)
    values = [ZERO, ONE, ExtReal(2), INF, ExtReal(Fraction(1, 3))]
    for n in range(1, 5):
        for poset in posets_up_to_iso(n):
            mu = SimpleValuation(poset, [rng.choice(values) for _ in range(n)])
            nu = to_opens(mu)
            checked = ValuationOnOpens(poset, nu.table)
            assert nu == checked
            assert sorted(nu.table) == all_opens(poset)
            assert nu.items() == checked.items()
            assert all(type(v) is ExtReal for v in nu.table.values())


def test_open_tables_are_monotone_and_modular():
    rng = random.Random(14)
    for poset in posets_up_to_iso(3):
        for _ in range(10):
            mu = SimpleValuation(poset, [ExtReal(rng.randint(0, 4)) for _ in range(poset.n)])
            nu = to_opens(mu)
            opens = all_opens(poset)
            assert nu.value(0) == ZERO
            for u in opens:
                for w in opens:
                    if u & ~w == 0:
                        assert nu.value(u) <= nu.value(w)
                    union, inter = u | w, u & w
                    assert nu.value(u) + nu.value(w) == nu.value(union) + nu.value(inter)


def test_from_opens_rejects_non_valuations():
    anti = FinitePoset(2, [])
    # additivity fails: the two singletons sum to 2 but the whole space says 3
    bad = ValuationOnOpens(anti, {0b00: 0, 0b01: 1, 0b10: 1, 0b11: 3})
    with pytest.raises(NotAValuation):
        from_opens(bad)
    # negativity needed: the up-set above 0 is worth less than its rest
    bad2 = ValuationOnOpens(CHAIN2, {0b00: 0, 0b10: 2, 0b11: 1})
    with pytest.raises(NotAValuation):
        from_opens(bad2)


def test_from_opens_rechecks_a_table_changed_after_construction():
    # from_opens reads only the up-sets {0}, {1} and the empty set of the
    # antichain, so these changes show only in the recheck of every open
    def changed(change):
        nu = ValuationOnOpens(FinitePoset(2, []), {0b00: 0, 0b01: 1, 0b10: 1, 0b11: 2})
        change(nu)
        return nu

    assert from_opens(changed(lambda nu: None)).weights == (ONE, ONE)
    for change in (
        lambda nu: nu.table.pop(0b11),
        lambda nu: nu.table.update({0b100: ZERO}),
        lambda nu: nu.table.update({0b11: ExtReal(3)}),
        # the chain 0 <= 1 has no open {0}, so the table no longer fits it
        lambda nu: setattr(nu, "poset", FinitePoset(2, [(0, 1)])),
    ):
        with pytest.raises(NotAValuation, match="table is not induced by pointwise weights"):
            from_opens(changed(change))


def test_recover_function_examples():
    phi = DualFunctional([1, 2])
    f = recover_function(phi, CHAIN2)
    assert f.values == (ONE, ExtReal(2))
    mu = SimpleValuation(CHAIN2, [3, 2])
    assert phi.eval(mu) == eval_valuation(mu, f) == ExtReal(7)

    with pytest.raises(NotLSC) as info:
        recover_function(DualFunctional([2, 1]), CHAIN2)
    assert info.value.witness == (0, 1)

    zero = recover_function(DualFunctional([0, 0]), CHAIN2)
    assert zero.values == (ZERO, ZERO)
    with pytest.raises(DimensionMismatch):
        recover_function(DualFunctional([1, 2, 3]), CHAIN2)


def test_equal_dual_functionals_hash_equal():
    half = DualFunctional([1, parse_extreal("2/4")])
    twin = DualFunctional([1, Fraction(1, 2)])
    assert half == twin and hash(half) == hash(twin)
    assert len({half, twin, DualFunctional([1, INF])}) == 2


def test_recover_function_soundness_on_random_valuations():
    rng = random.Random(21)
    for n in range(1, 5):
        for poset in posets_up_to_iso(n):
            coeffs = _monotone(
                poset,
                [
                    INF if rng.randrange(10) == 0 else ExtReal(rng.randint(0, 6), rng.randint(1, 3))
                    for _ in range(n)
                ],
            )
            phi = DualFunctional(coeffs)
            f = recover_function(phi, poset)
            for _ in range(50):
                mu = random_simple_valuation(rng, poset)
                assert phi.eval(mu) == eval_valuation(mu, f)


def test_recovery_is_injective_on_monotone_coefficients():
    # distinct monotone tables are told apart by a point evaluation
    f = LscFun(SIGMA, [1, 2])
    g = LscFun(SIGMA, [1, 3])
    separated = False
    for x in range(SIGMA.n):
        d = SimpleValuation.dirac(SIGMA, x)
        if eval_valuation(d, f) != eval_valuation(d, g):
            separated = True
    assert separated
    # and recover-then-read-coefficients is the identity
    phi = DualFunctional([1, 2])
    assert recover_function(phi, SIGMA).values == phi.coeffs


def test_directedness_examples():
    ok, pair = check_dominated_directed(DualFunctional([1, 2]), CHAIN2, 1, ExtReal(2))
    assert ok and pair is None
    single = FinitePoset(1, [])
    ok, _ = check_dominated_directed(DualFunctional([1]), single, 2, ExtReal(2))
    assert ok
    ok, _ = check_dominated_directed(DualFunctional([2, 1]), CHAIN2, 2, ExtReal(2))
    assert ok
    with pytest.raises(TooLarge):
        check_dominated_directed(DualFunctional([1, 2]), CHAIN2, 1, INF)


def test_directedness_across_small_posets():
    rng = random.Random(33)
    for n in range(1, 4):
        for poset in posets_up_to_iso(n):
            coeffs = [ExtReal(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(n)]
            ok, pair = check_dominated_directed(DualFunctional(coeffs), poset, 2, ExtReal(2))
            assert ok, pair


def test_sup_representation_examples():
    phi = DualFunctional([1, 2])
    f = recover_function(phi, CHAIN2)
    assert check_sup_representation(phi, CHAIN2, [f])
    pieces = _steps(f)
    assert check_sup_representation(phi, CHAIN2, pieces)
    assert not check_sup_representation(phi, CHAIN2, [LscFun(CHAIN2, [0, 0])])


def test_sup_representation_step_families_everywhere():
    rng = random.Random(44)
    for n in range(1, 5):
        for poset in posets_up_to_iso(n):
            coeffs = _monotone(
                poset, [ExtReal(rng.randint(0, 5), rng.randint(1, 2)) for _ in range(n)]
            )
            phi = DualFunctional(coeffs)
            f = recover_function(phi, poset)
            family = _steps(f)
            if family:
                assert check_sup_representation(phi, poset, family)


# The sampled checks as they were before the exact ones, kept as oracles:
# every grid function is tested against the Dirac valuations plus a seeded
# random batch, and directedness against every pair of survivors.  The tests
# below pass small batches; the Diracs already decide every verdict.


def _sampled_grid_values(grid_denominator, cap):
    if grid_denominator < 1:
        raise ValueError("grid denominator must be positive")
    if cap.is_infinite:
        raise TooLarge("an infinite cap would need an infinite grid")
    values = []
    k = 0
    while True:
        v = ExtReal(k, grid_denominator)
        if not v <= cap:
            break
        values.append(v)
        k += 1
    return values


def _sampled_dominated_directed(
    phi, poset, grid_denominator, cap, seed=1729, random_valuations=200
):
    values = _sampled_grid_values(grid_denominator, ExtReal(cap))
    n = poset.n
    if len(values) ** n > 200_000:
        raise TooLarge(f"{len(values)}^{n} candidate tables exceed the bound")
    candidates = [
        vals for vals in product(values, repeat=n) if is_lsc(vals, poset)[0]
    ]
    rng = random.Random(seed)
    mus = [SimpleValuation.dirac(poset, x) for x in range(n)]
    mus += [random_simple_valuation(rng, poset) for _ in range(random_valuations)]
    bounds = [(mu._vec, phi.eval(mu)) for mu in mus]
    survivors = []
    for f in candidates:
        vec = ExtVec(f)
        if all(w.dot(vec) <= b for w, b in bounds):
            survivors.append(f)
    sset = set(survivors)
    for i in range(len(survivors)):
        fi = survivors[i]
        for j in range(i + 1, len(survivors)):
            fj = survivors[j]
            lub = tuple(a if b <= a else b for a, b in zip(fi, fj))
            if lub not in sset:
                return False, (fi, fj)
    return True, None


def _sampled_sup_representation(phi, poset, family, seed=1729, samples=200):
    funs = list(family)
    if not funs:
        raise EmptyList("the family must be nonempty")
    for f in funs:
        if f.poset != poset:
            raise PosetMismatch("family member lives over a different poset")
    top = LscFun.sup(funs)
    rng = random.Random(seed)
    mus = [SimpleValuation.dirac(poset, x) for x in range(poset.n)]
    mus += [random_simple_valuation(rng, poset) for _ in range(samples)]
    for mu in mus:
        bound = phi.eval(mu)
        if any(not eval_valuation(mu, f) <= bound for f in funs):
            return False
        if eval_valuation(mu, top) != bound:
            return False
    return True


def _outcome(check, *args, **kwargs):
    """The result of a check, or the type and message of what it raised."""
    try:
        return check(*args, **kwargs)
    except (ConeDualError, ValueError) as exc:
        return type(exc), str(exc)


_POSETS_UP_TO_4 = [p for n in range(1, 5) for p in posets_up_to_iso(n)]


def _rand_coeff(rng):
    """Zero, a small rational, or infinity."""
    pick = rng.randrange(5)
    if pick == 0:
        return INF
    return ExtReal(rng.randint(0, 5), rng.randint(1, 3))


def test_exact_directedness_matches_the_sampled_oracle():
    rng = random.Random(1860)
    raised = set()
    for case in range(150):
        poset = rng.choice(_POSETS_UP_TO_4)
        n = poset.n
        # now and then a functional of the wrong dimension
        dim = n + 1 if case % 25 == 0 else n
        phi = DualFunctional([_rand_coeff(rng) for _ in range(dim)])
        d = rng.choice([0, 1, 2, 3]) if case % 10 == 0 else rng.choice([1, 2])
        cap = rng.choice([ExtReal(1), ExtReal(3, 2), ExtReal(2)])
        if case % 10 == 5:
            cap = INF
        elif case % 10 == 7 and n > 1:
            cap = ExtReal(500)  # over the bound
        elif n == 4 and d * cap.num > 2 * cap.den:
            d = 1  # keep the oracle's pairwise loop quick
        want = _outcome(_sampled_dominated_directed, phi, poset, d, cap, random_valuations=30)
        got = _outcome(check_dominated_directed, phi, poset, d, cap)
        assert got == want, (case, poset, phi, d, cap)
        if type(want) is tuple and isinstance(want[0], type):
            raised.add(want[0])
    # every kind of exception occurred, each with the oracle's message
    assert raised == {DimensionMismatch, TooLarge, ValueError}


def test_exact_sup_representation_matches_the_sampled_oracle():
    rng = random.Random(1861)
    verdicts = {True: 0, False: 0}
    for case in range(1500):
        poset = rng.choice(_POSETS_UP_TO_4)
        n = poset.n
        g = LscFun(poset, _monotone(poset, [_rand_coeff(rng) for _ in range(n)]))
        family = _steps(g) or [g]
        for _ in range(rng.randrange(3)):
            h = LscFun(poset, _monotone(poset, [_rand_coeff(rng) for _ in range(n)]))
            if rng.randrange(3):
                h = LscFun(poset, [ext_min(pair) for pair in zip(g.values, h.values)])
            family.append(h)
        if len(family) > 1 and rng.randrange(4) == 0:
            family.pop(rng.randrange(len(family)))
        coeffs = list(g.values)
        if rng.randrange(3) == 0:
            coeffs[rng.randrange(n)] = _rand_coeff(rng)
        phi = DualFunctional(coeffs)
        want = _sampled_sup_representation(phi, poset, family, samples=10)
        assert check_sup_representation(phi, poset, family) is want, (case, poset, phi, family)
        verdicts[want] += 1
    assert min(verdicts.values()) >= 300, verdicts


def test_sup_representation_raises_as_the_sampled_oracle():
    chain3 = FinitePoset(3, [(0, 1), (1, 2), (0, 2)])
    f = LscFun(CHAIN2, [1, INF])
    cases = [
        (DualFunctional([1, 2, 3]), CHAIN2, [f]),
        (DualFunctional([1]), CHAIN2, [f]),
        (DualFunctional([1, 2]), CHAIN2, []),
        (DualFunctional([1, 2]), CHAIN2, [f, LscFun(chain3, [0, 1, 1])]),
        (DualFunctional([1, 2]), chain3, [f]),
        (DualFunctional([1]), CHAIN2, []),
    ]
    raised = []
    for phi, poset, family in cases:
        want = _outcome(_sampled_sup_representation, phi, poset, family)
        assert _outcome(check_sup_representation, phi, poset, family) == want
        raised.append(want[0])
    assert raised == [
        DimensionMismatch, DimensionMismatch, EmptyList, PosetMismatch, PosetMismatch, EmptyList
    ]


def test_grid_bound_is_checked_before_the_grid_is_built():
    # a million grid values on one element: the bound alone must refuse it
    single = FinitePoset(1, [])
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            check_dominated_directed(DualFunctional([1]), single, 1, ExtReal(10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _weighted_sum_fold(weights, values):
    """The pairing as an ExtReal fold, kept as an independent oracle."""
    total = ZERO
    for w, v in zip(weights, values):
        if w.num and v.num:
            # zero factors contribute nothing, including 0 * inf
            total = total + w * v
    return total


def _rand_ext(rng):
    pick = rng.randrange(6)
    if pick == 0:
        return ZERO
    if pick == 1:
        return INF
    return ExtReal(rng.randint(0, 12), rng.randint(1, 6))


def test_pairings_match_the_fold_oracle():
    rng = random.Random(55)
    posets = [p for n in range(1, 5) for p in posets_up_to_iso(n)]
    zero_inf = infinite = zero = 0
    for _ in range(600):
        poset = rng.choice(posets)
        weights = [_rand_ext(rng) for _ in range(poset.n)]
        values = _monotone(poset, [_rand_ext(rng) for _ in range(poset.n)])
        coeffs = [_rand_ext(rng) for _ in range(poset.n)]
        mu = SimpleValuation(poset, weights)
        f = LscFun(poset, values)
        opens = to_opens(mu)
        for got, want in (
            (eval_valuation(mu, f), _weighted_sum_fold(weights, values)),
            (DualFunctional(coeffs).eval(mu), _weighted_sum_fold(weights, coeffs)),
            # nu(U) against the weights inside U
            *(
                (value, _weighted_sum_fold(weights, [ONE if mask >> i & 1 else ZERO for i in range(poset.n)]))
                for mask, value in opens.items()
            ),
        ):
            assert (got.num, got.den) == (want.num, want.den)
            infinite += want.is_infinite
            zero += want.is_zero
        zero_inf += any(
            (w.is_zero and v.is_infinite) or (w.is_infinite and v.is_zero)
            for w, v in zip(weights, values)
        )
    # the cases cover 0 * inf pairs and both kinds of extreme result
    assert zero_inf and infinite and zero


def test_constructors_reject_non_numbers():
    with pytest.raises(TypeError):
        SimpleValuation(FinitePoset(1, []), ["x"])
    with pytest.raises(TypeError):
        DualFunctional(["x"])


def test_open_tables_refuse_a_bool_mask_and_a_non_number():
    single = FinitePoset(1, [])
    assert ValuationOnOpens(single, {0: 0, 1: Fraction(1, 2)}).value(1) == ExtReal(1, 2)
    for table in ({0: 0, True: 1}, {0: 0.5, 1: "x"}, {0: 0, 1: "x"}):
        with pytest.raises(TypeError):
            ValuationOnOpens(single, table)


def test_a_bool_is_not_a_weight_a_value_or_a_grid_denominator():
    single = FinitePoset(1, [])
    for bad in (lambda: SimpleValuation(single, [True]),
                lambda: DualFunctional([False]),
                lambda: ValuationOnOpens(single, {0: False, 1: True}),
                lambda: check_dominated_directed(DualFunctional([1]), single, True, 1),
                lambda: check_dominated_directed(DualFunctional([1]), single, 1, True),
                lambda: check_dominated_directed(DualFunctional([1]), single, 1, 1.5)):
        with pytest.raises(TypeError):
            bad()
    assert check_dominated_directed(DualFunctional([1]), single, 1, 1) == (True, None)


def test_directedness_rejects_a_functional_of_the_wrong_dimension():
    with pytest.raises(DimensionMismatch):
        check_dominated_directed(
            DualFunctional([1, 1]), FinitePoset(3, []), 1, ExtReal(1)
        )
