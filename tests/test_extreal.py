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
    ext_sup,
    parse_extreal,
    sub_partial,
)
from conedual.errors import DimensionMismatch, EmptyList, ParseError, UndefinedDifference

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
    assert sub_partial(5, 2) == ExtReal(3)


def test_order_examples():
    assert ext_min([ExtReal(2), INF, ExtReal(1, 2)]) == ExtReal(1, 2)
    assert ext_max([ExtReal(2), INF]) == INF
    assert ext_sup([ExtReal(2), ExtReal(3)]) == ExtReal(3)
    assert ExtReal(3, 7) <= ExtReal(1, 2)
    assert not ExtReal(1, 2) <= ExtReal(3, 7)
    with pytest.raises(EmptyList):
        ext_min([])
    with pytest.raises(EmptyList):
        ext_max([])


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


def test_sub_partial_inverts_addition():
    for a in GRID:
        for b in GRID:
            if b.is_finite:
                assert sub_partial(a + b, b) == a


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
    for bad in ("-1", "1/0", "1/-2", "a", "1.5", ""):
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
