import random
import sys
from fractions import Fraction

import pytest

from conedual import (
    INF,
    ONE,
    ZERO,
    ExtReal,
    ExtVec,
    ext_max,
    ext_min,
    parse_extreal,
)
from conedual.certify import combination_point
from conedual.errors import DimensionMismatch, EmptyList, ParseError, UndefinedDifference
from conedual.extreal import _weighted_sum, as_extreal, as_extvec

GRID = [ZERO, ExtReal(1, 3), ExtReal(1, 2), ONE, ExtReal(2), ExtReal(3), INF]


def test_construction_reduces():
    v = ExtReal(4, 6)
    assert (v.num, v.den) == (2, 3)
    assert ExtReal(0, 7) == ZERO
    assert ExtReal(Fraction(10, 4)) == ExtReal(5, 2)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        ExtReal(-1)
    with pytest.raises(ValueError):
        ExtReal(1, 0)
    with pytest.raises(ValueError):
        ExtReal(1, -2)
    with pytest.raises(TypeError):
        ExtReal(0.5)


def test_addition_examples():
    assert ExtReal(2) + INF == INF
    assert ZERO + ZERO == ZERO
    assert ExtReal(1, 3) + ExtReal(1, 6) == ExtReal(1, 2)


def test_multiplication_examples():
    assert ZERO * INF == ZERO
    assert INF * ZERO == ZERO
    assert ExtReal(3) * INF == INF
    assert INF * INF == INF
    assert ExtReal(2, 3) * ExtReal(3, 2) == ONE


def test_subtraction_examples():
    assert ExtReal(5) - ExtReal(2) == ExtReal(3)
    assert INF - ExtReal(2) == INF
    with pytest.raises(UndefinedDifference):
        INF - INF
    with pytest.raises(UndefinedDifference):
        ExtReal(1) - ExtReal(2)
    assert ExtReal(5) - 2 == ExtReal(3)


def test_order_examples():
    assert ext_min([ExtReal(2), INF, ExtReal(1, 2)]) == ExtReal(1, 2)
    assert ext_max([ExtReal(2), INF]) == INF
    assert ext_max([ExtReal(2), ExtReal(3)]) == ExtReal(3)
    assert ExtReal(3, 7) <= ExtReal(1, 2)
    assert not ExtReal(1, 2) <= ExtReal(3, 7)
    with pytest.raises(EmptyList):
        ext_min([])
    with pytest.raises(EmptyList):
        ext_max([])


def test_min_and_max_refuse_what_extreal_refuses():
    # a lone value that is not a number used to come back as NotImplemented
    for fold, values in ((ext_min, [1.5]), (ext_max, ["x"]), (ext_max, [True]),
                         (ext_min, [ONE, 0.5]), (ext_max, [None, ONE])):
        with pytest.raises(TypeError):
            fold(values)
    with pytest.raises(ValueError):
        ext_max([-1])
    assert ext_min([2, Fraction(1, 3), INF]) == ExtReal(1, 3)
    assert ext_max([0, Fraction(1, 3)]) == ExtReal(1, 3)


def test_total_order_on_grid():
    for a in GRID:
        for b in GRID:
            assert (a <= b) or (b <= a)
            assert (a == b) == (a <= b and b <= a)


def test_monoid_laws_exhaustive():
    for a in GRID:
        assert a + ZERO == a
        assert ONE * a == a
        for b in GRID:
            assert a + b == b + a
            assert a * b == b * a
            for c in GRID:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + b) * c == a * c + b * c


def test_monotonicity_exhaustive():
    for a in GRID:
        for b in GRID:
            if not a <= b:
                continue
            for c in GRID:
                assert a + c <= b + c
                assert a * c <= b * c


def test_subtraction_inverts_addition():
    for a in GRID:
        for b in GRID:
            if b.is_finite:
                assert a + b - b == a


def test_division():
    assert ExtReal(3) / ExtReal(2) == ExtReal(3, 2)
    assert INF / ExtReal(5) == INF
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ValueError):
        ONE / INF


def test_parse_and_format():
    assert parse_extreal("inf") == INF
    assert parse_extreal("3/4") == ExtReal(3, 4)
    assert parse_extreal("7") == ExtReal(7)
    assert parse_extreal("6/4") == ExtReal(3, 2)
    for v in GRID:
        assert parse_extreal(str(v)) == v
    for bad in ("-1", "1/0", "1/-2", "a", "1.5", "", "1_0", "+1", "1 / 2", "3/+2", "\uff11", "\u0663"):
        with pytest.raises(ParseError):
            parse_extreal(bad)


def test_hash_and_equality_are_structural():
    assert hash(ExtReal(2, 4)) == hash(ExtReal(1, 2))
    assert len({ExtReal(1, 2), ExtReal(2, 4), INF, ExtReal(0)}) == 3
    assert ExtReal(2) == 2
    assert ExtReal(1, 2) == Fraction(1, 2)
    assert INF != 2



def test_hash_agrees_with_fraction():
    rng = random.Random(2026)
    mersenne = 2**61 - 1
    dens = [1, 2, 3, 7, mersenne, 2 * mersenne, 3 * mersenne + 1]
    for _ in range(3000):
        num = rng.getrandbits(rng.choice((1, 8, 32, 70)))
        den = rng.choice(dens + [rng.getrandbits(rng.choice((8, 70))) + 1])
        assert hash(ExtReal(num, den)) == hash(Fraction(num, den)), (num, den)
    # a denominator the hash modulus divides hashes like infinity, as in Fraction
    assert hash(ExtReal(1, mersenne)) == hash(Fraction(1, mersenne)) == sys.hash_info.inf
    assert hash(ExtReal(2**70 + 1, 3)) == hash(Fraction(2**70 + 1, 3))
    assert hash(INF) == hash(float("inf")) == sys.hash_info.inf
    assert hash(ZERO) == hash(0) and hash(ONE) == hash(1)

def test_dot_examples():
    a = ExtVec([ExtReal(1, 2), INF, ZERO])
    assert a.dot(ExtVec([4, 0, INF])) == ExtReal(2)  # both 0 * inf terms vanish
    assert a.dot(ExtVec([0, 1, 0])) == INF
    assert ExtVec([ExtReal(1, 3), ExtReal(1, 6)]).dot(ExtVec([ExtReal(3, 2), 3])) == ONE
    assert ExtVec([0, 0]).dot(ExtVec([INF, INF])) == ZERO
    with pytest.raises(DimensionMismatch):
        a.dot(ExtVec([1, 1]))


# ---------------------------------------------------------------------------
# vector combinations against the entry-by-entry ExtReal arithmetic they replaced


def _oracle_scale(v, r):
    """``ExtVec.scale`` as it was, one ``ExtReal`` product per entry: the reference."""
    r = as_extreal(r)
    return ExtVec(tuple(r * e for e in v.entries))


def _oracle_add(u, v):
    """``ExtVec.__add__`` as it was, one ``ExtReal`` sum per entry: the reference."""
    if u.dim != v.dim:
        raise DimensionMismatch(f"{u.dim} versus {v.dim}")
    return ExtVec(tuple(a + b for a, b in zip(u.entries, v.entries)))


def _oracle_combination_point(generators, witness):
    """``combination_point`` as it was, a chain of scales and sums: the reference."""
    gens = [as_extvec(g) for g in generators]
    out = ExtVec((ZERO,) * gens[0].dim)
    for j, coeff in witness:
        out = _oracle_add(out, _oracle_scale(gens[j], ExtReal(Fraction(coeff))))
    return out


def _rand_entry(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return ZERO
    if kind == 1:
        return INF
    if kind == 2:
        return ExtReal(rng.getrandbits(70), rng.getrandbits(70) | 1)
    return ExtReal(rng.randint(0, 12), rng.randint(1, 9))


def _rand_weight(rng):
    """0, small, 70-bit or infinite, as an ExtReal, an int or a Fraction."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice((ZERO, 0, Fraction(0)))
    if kind == 1:
        return INF
    if kind == 2:
        return Fraction(rng.getrandbits(70), rng.getrandbits(70) | 1)
    if kind == 3:
        return rng.randint(1, 5)
    return ExtReal(rng.randint(1, 9), rng.randint(1, 7))


def _same(got, want):
    assert got == want and got._form == want._form, (got, want)


def test_weighted_sum_matches_entrywise_scale_and_add():
    rng = random.Random(4093)
    seen = set()
    for _ in range(2500):
        dim = rng.randint(1, 8)
        vecs = [ExtVec([_rand_entry(rng) for _ in range(dim)]) for _ in range(rng.randint(1, 5))]
        # indices may repeat, as in a witness that names a generator twice
        idx = [rng.randrange(len(vecs)) for _ in range(rng.randint(0, 6))]
        weights = [_rand_weight(rng) for _ in idx]
        want = ExtVec((ZERO,) * dim)
        for w, j in zip(weights, idx):
            want = _oracle_add(want, _oracle_scale(vecs[j], w))
        _same(_weighted_sum(weights, [vecs[j] for j in idx], dim), want)
        for w, j in zip(weights, idx):
            v = vecs[j]
            inf_w = as_extreal(w).is_infinite
            zero_w = as_extreal(w).is_zero
            seen.add(("inf weight on a zero entry", inf_w and any(e.is_zero for e in v)))
            seen.add(("zero weight on an infinite entry", zero_w and any(e.is_infinite for e in v)))
            seen.add(("70-bit weight", type(w) is Fraction and w.denominator.bit_length() > 60))
        seen.add(("repeated index", len(set(idx)) < len(idx)))
        seen.add(("infinite and finite coordinates", any(e.is_infinite for e in want)
                  and any(e.is_finite and not e.is_zero for e in want)))
        a, b = vecs[0], vecs[-1]
        _same(a + b, _oracle_add(a, b))
        for r in (ZERO, INF, 1, Fraction(3, 7), _rand_weight(rng)):
            _same(a.scale(r), _oracle_scale(a, r))
    assert all((kind, True) in seen for kind, _ in seen), seen


def test_combination_point_matches_the_scale_and_add_chain():
    rng = random.Random(6007)
    for _ in range(800):
        dim = rng.randint(1, 8)
        gens = [ExtVec([_rand_entry(rng) for _ in range(dim)]) for _ in range(rng.randint(1, 6))]
        witness = [
            (rng.randrange(len(gens)),
             rng.choice((0, Fraction(rng.randint(0, 9), rng.randint(1, 8)),
                         Fraction(rng.getrandbits(70), rng.getrandbits(70) | 1))))
            for _ in range(rng.randint(0, 7))
        ]
        _same(combination_point(gens, witness), _oracle_combination_point(gens, witness))


def test_vector_combinations_keep_their_exceptions():
    v = ExtVec([1, 2])
    for negative in (-1, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            v.scale(negative)
    for bad in ("2", 0.5, None):
        with pytest.raises(TypeError):
            v.scale(bad)
    with pytest.raises(DimensionMismatch, match="2 versus 3"):
        v + ExtVec([1, 2, 3])
    assert v.__add__((1, 2)) is NotImplemented
    with pytest.raises(TypeError):
        v + (1, 2)
    with pytest.raises(DimensionMismatch, match="2 versus 3"):
        combination_point([v, ExtVec([1, 2, 3])], [(1, 1)])
    with pytest.raises(ValueError):
        combination_point([v], [(0, -1)])
    # an empty combination is the zero vector of the generators' dimension
    _same(combination_point([v, v], []), ExtVec([0, 0]))


def test_a_bool_is_not_a_number():
    for bad in (lambda: ExtReal(True), lambda: ExtReal(1, True),
                lambda: ExtReal(Fraction(1, 2), True), lambda: ExtVec([True]),
                lambda: ExtVec([1, False]), lambda: ONE + True):
        with pytest.raises(TypeError):
            bad()
    assert as_extreal(False) is NotImplemented
    assert as_extreal(1) == ExtReal(1, 1) and ExtReal(ExtReal(1, 2), 1) == ExtReal(1, 2)


def test_a_lone_unit_weight_returns_its_vector():
    rng = random.Random(8191)
    seen = set()
    for _ in range(1500):
        dim = rng.randint(1, 6)
        vecs = []
        for _ in range(rng.randint(1, 5)):
            if rng.randrange(5) == 0:
                vecs.append(ExtVec([rng.choice((ZERO, 0, Fraction(0)))] * dim))
            else:
                vecs.append(ExtVec([_rand_entry(rng) for _ in range(dim)]))
        idx = [rng.randrange(len(vecs)) for _ in range(rng.randint(1, 6))]
        lone = rng.randrange(len(idx))
        weights = [rng.choice((0, Fraction(0), ZERO)) for _ in idx]
        weights[lone] = rng.choice((1, Fraction(1), ONE))
        members = [vecs[j] for j in idx]
        got = _weighted_sum(weights, members, dim)
        assert got is members[lone]
        want = ExtVec((ZERO,) * dim)
        for wt, j in zip(weights, idx):
            want = _oracle_add(want, _oracle_scale(vecs[j], wt))
        _same(got, want)
        seen.add(("inf", any(e.is_infinite for e in got)))
        seen.add(("all zero", all(e.is_zero for e in got)))
        seen.add(("weight type", type(weights[lone]).__name__))
        seen.add(("zeros beside it", len(idx) > 1))
    assert {("inf", True), ("all zero", True), ("zeros beside it", True),
            ("weight type", "int"), ("weight type", "Fraction"), ("weight type", "ExtReal")} <= seen


def test_weights_the_lone_unit_path_does_not_take_are_refused_as_before():
    v, w = ExtVec([1, INF]), ExtVec([2, 0])
    for weights in [(True,), (False, 1), (1, 0.0)]:
        with pytest.raises(TypeError):
            _weighted_sum(weights, [v, w][:len(weights)], 2)
    with pytest.raises(ValueError):
        _weighted_sum((-1,), [v], 2)
    for weights in [(1,), (Fraction(1),), (ONE,)]:
        with pytest.raises(DimensionMismatch, match="3 versus 2"):
            _weighted_sum(weights, [v], 3)
    # a vector of another dimension beside the lone one, with weight zero
    with pytest.raises(DimensionMismatch, match="2 versus 1"):
        _weighted_sum((1, 0), [v, ExtVec([5])], 2)
    # a negative weight ahead of the mismatch raises first, as in the fold
    with pytest.raises(ValueError):
        _weighted_sum((-1, 1), [v, ExtVec([5])], 2)
    # two unit weights, or a unit with an infinite one, take the fold
    _same(_weighted_sum((1, ONE), [w, w], 2), ExtVec([4, 0]))
    _same(_weighted_sum((1, INF), [v, w], 2), ExtVec([INF, INF]))


def test_a_fraction_enters_as_it_is_reduced():
    rng = random.Random(131)
    for _ in range(500):
        num = rng.getrandbits(rng.choice((3, 40, 90)))
        den = rng.getrandbits(rng.choice((3, 40, 90))) + 1
        got = ExtReal(Fraction(num, den))
        assert (got.num, got.den) == (ExtReal(num, den).num, ExtReal(num, den).den)
    for bad in (Fraction(-1, 2), Fraction(-3)):
        with pytest.raises(ValueError):
            ExtReal(bad)


def test_combination_point_refuses_what_extreal_refuses():
    gens = [ExtVec([2, 0]), ExtVec([0, 2])]
    for bad in (True, False, 0.5, "1/2", None):
        with pytest.raises(TypeError):
            combination_point(gens, [(0, bad), (1, Fraction(1, 2))])
    with pytest.raises(TypeError):
        combination_point(gens, [(0, True)])
    _same(combination_point(gens, [(0, Fraction(1, 2)), (1, ExtReal(1, 2))]), ExtVec([1, 1]))
