"""The max-min walk behind ``SuperlinFun.eval``, ``SublinFun.eval``,
``minkowski`` and ``OpenSetRep.contains``, and the integer-form readers,
against the ``ExtVec.dot``, ``ext_min`` and ``ext_max`` formulas they
replaced, kept here as the oracles.  ``refutes`` checks on those formulas
itself, and is pinned here to the same oracles."""

import random

import pytest

from conedual import (
    INF,
    ONE,
    ZERO,
    ExtReal,
    ExtVec,
    FinitePoset,
    LinFun,
    OpenSetRep,
    SimpleValuation,
    SublinFun,
    SuperlinFun,
    all_opens,
    ext_max,
    ext_min,
    minkowski,
    posets_up_to_iso,
    specialization_leq,
    to_opens,
)
from conedual.certify import refutes
from conedual.errors import DimensionMismatch, EmptyList


def _entry(rng):
    """Zeros, infinities, small ratios and 70-bit numerators."""
    kind = rng.randrange(6)
    if kind == 0:
        return ZERO
    if kind == 1:
        return INF
    if kind == 2:
        return ExtReal(rng.randrange(2**69, 2**70), rng.randint(1, 2**40))
    return ExtReal(rng.randint(0, 12), rng.randint(1, 6))


def _vector(rng, dim):
    shape = rng.randrange(8)
    if shape == 0:
        return ExtVec([ZERO] * dim)
    if shape == 1:
        return ExtVec([INF] * dim)
    return ExtVec([_entry(rng) for _ in range(dim)])


def _same(got, want):
    return type(got) is ExtReal and (got.num, got.den) == (want.num, want.den)


def _min_dot(vecs, y):
    return ext_min([x.dot(y) for x in vecs])


def _max_dot(vecs, y):
    return ext_max([x.dot(y) for x in vecs])


def test_branch_evaluations_minkowski_and_membership_match_the_dot_oracles():
    rng = random.Random(28)
    for _ in range(300):
        dim = rng.randint(1, 5)
        blocks = [[_vector(rng, dim) for _ in range(rng.randint(1, 4))]
                  for _ in range(rng.randint(0, 4))]
        y = _vector(rng, dim)
        for block in blocks:
            assert _same(SuperlinFun(block).eval(y), _min_dot(block, y))
            assert _same(SublinFun(block).eval(y), _max_dot(block, y))
        rep = OpenSetRep(blocks)
        assert _same(minkowski(rep, y), ext_max([ZERO] + [_min_dot(b, y) for b in blocks]))
        assert rep.contains(y) == any(all(ONE < x.dot(y) for x in b) for b in blocks)
        if len(blocks) >= 2:
            gvecs, hvecs = blocks[0], blocks[1]
            assert refutes(y, gvecs, hvecs) == (_max_dot(hvecs, y) < _min_dot(gvecs, y))


def test_specialization_leq_matches_the_dot_oracle():
    rng = random.Random(29)
    for _ in range(300):
        dim = rng.randint(1, 5)
        gens = [_vector(rng, dim) for _ in range(rng.randint(1, 6))]
        y, y_prime = _vector(rng, dim), _vector(rng, dim)
        if rng.randrange(3) == 0:
            # y <= y' coordinatewise, so the order holds
            y_prime = y + y_prime
        want = all(x.dot(y) <= x.dot(y_prime) for x in gens)
        assert specialization_leq(y, y_prime, gens) == want
        assert specialization_leq(y, y_prime, [LinFun(x) for x in gens]) == want


def test_to_opens_matches_the_indicator_pairing():
    rng = random.Random(30)
    posets = [p for n in range(1, 5) for p in posets_up_to_iso(n)]
    posets += [FinitePoset(9, [(0, 3), (1, 3), (3, 8), (0, 8), (1, 8), (2, 8)]),
               FinitePoset(12, [])]
    for poset in posets:
        for _ in range(3):
            mu = SimpleValuation(poset, _vector(rng, poset.n))
            table = to_opens(mu).table
            assert sorted(table) == all_opens(poset)
            for mask, value in table.items():
                indicator = ExtVec([1 if mask >> i & 1 else 0 for i in range(poset.n)])
                assert _same(value, mu._vec.dot(indicator))


def test_dimension_errors_name_the_branch_or_generator_dimension_first():
    y = ExtVec([1, 2])
    for fun in (SuperlinFun([[1, 1, 1]]), SublinFun([[1, 1, 1], [2, 2, 2]])):
        with pytest.raises(DimensionMismatch, match="^3 versus 2$"):
            fun.eval(y)
    with pytest.raises(DimensionMismatch, match="^3 versus 2$"):
        OpenSetRep([[[1, 1, 1]]]).contains(y)
    with pytest.raises(DimensionMismatch, match="^3 versus 2$"):
        minkowski(OpenSetRep([[[1, 1, 1]]]), y)
    # every member is checked, however early the extreme is decided
    for hvecs in ([ExtVec([INF, 1]), ExtVec([1])], [ExtVec([1]), ExtVec([INF, 1])]):
        with pytest.raises(DimensionMismatch, match="^1 versus 2$"):
            refutes(y, [ExtVec([1, 1])], hvecs)
    with pytest.raises(EmptyList):
        refutes(y, [ExtVec([1, 1])], [])
    # the generators' dimensions are checked before any is compared, in either order
    gens = [ExtVec([1, 0]), ExtVec([1])]
    for a, b in ((ExtVec([1, 0]), ExtVec([0, 1])), (ExtVec([0, 1]), ExtVec([1, 0]))):
        with pytest.raises(DimensionMismatch, match="^1 versus 2$"):
            specialization_leq(a, b, gens)
    with pytest.raises(DimensionMismatch, match="^2 versus 3$"):
        specialization_leq(y, ExtVec([1, 2, 3]), gens)
