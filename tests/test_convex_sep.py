import random
from fractions import Fraction

import pytest

from conedual import (
    INF,
    ONE,
    ZERO,
    ExtReal,
    ExtVec,
    MeetsCorner,
    Separated,
    combination_point,
    in_corner,
    separate,
    verify_meets_corner,
    verify_separated,
)
from conedual.errors import DimensionMismatch, EmptyList
from conedual.oracles import hull_meets_corner

F = Fraction


def _rand_vec(rng, dim):
    entries = []
    for _ in range(dim):
        if rng.randrange(10) == 0:
            entries.append(INF)
        else:
            entries.append(ExtReal(rng.randint(0, 32), rng.randint(1, 16)))
    return ExtVec(entries)


def test_in_corner_examples():
    assert in_corner(ExtVec([2, ExtReal(3, 2)]))
    assert not in_corner(ExtVec([2, 1]))
    assert in_corner(ExtVec([INF, INF]))
    assert not in_corner(ExtVec([INF, 1]))


def test_separate_forces_unique_weights():
    # 2a1 <= 1 and 2a2 <= 1 with a1 + a2 = 1 pin both weights to one half
    out = separate([ExtVec([2, 0]), ExtVec([0, 2])], 2)
    assert isinstance(out, Separated)
    assert tuple(out.weights) == (F(1, 2), F(1, 2))


def test_separate_meets_corner_with_witness():
    out = separate([ExtVec([3, 0]), ExtVec([0, 3])], 2)
    assert isinstance(out, MeetsCorner)
    assert verify_meets_corner([ExtVec([3, 0]), ExtVec([0, 3])], out.witness)
    # the midpoint (3/2, 3/2) is the canonical witness here
    assert out.witness == ((0, F(1, 2)), (1, F(1, 2)))
    point = combination_point([ExtVec([3, 0]), ExtVec([0, 3])], out.witness)
    assert in_corner(point)


def test_verify_meets_corner_takes_no_bool_as_an_index():
    # False == 0, but a bool is no number here, as in the JSON decoder
    gens = [[2, 2], [0, 0]]
    assert verify_meets_corner(gens, [(0, 1)])
    assert not verify_meets_corner(gens, [(False, 1)])


def test_simplex_weights_take_no_bool_and_no_float():
    # True == 1 and 0.5 == 1/2, but neither is a rational weight, the rule of certify.simplex
    assert verify_separated([[0, 0]], [1, 0])
    assert verify_separated([[0, 0]], [F(1, 2), F(1, 2)])
    assert not verify_separated([[0, 0]], [True, False])
    assert not verify_separated([[0, 0]], [0.5, 0.5])
    assert verify_meets_corner([[2, 2]], [(0, 1)])
    assert not verify_meets_corner([[2, 2]], [(0, 1.0)])
    assert not verify_meets_corner([[2, 2]], [(0, True)])
    assert Separated((1, 0)).weights == ExtVec([1, 0])
    assert tuple(Separated((1, 0)).weights) == (F(1), F(0))
    for values in [(True, False), (0.5, 0.5), (F(1, 2), 0.5)]:
        with pytest.raises(ValueError):
            Separated(values)


def test_separate_infinite_coordinate_forced_to_zero():
    out = separate([ExtVec([INF, 0])], 2)
    assert isinstance(out, Separated)
    assert tuple(out.weights) == (F(0), F(1))
    assert verify_separated([ExtVec([INF, 0])], out.weights, 2)


def test_separate_all_coordinates_infinite():
    gens = [ExtVec([INF, 0]), ExtVec([1, INF])]
    out = separate(gens, 2)
    assert isinstance(out, MeetsCorner)
    assert verify_meets_corner(gens, out.witness)


def test_separate_mixed_infinite_and_finite_witness():
    # the second coordinate needs the infinite generator, the first is won
    # by the finite one strictly above one
    gens = [ExtVec([3, 0]), ExtVec([0, INF]), ExtVec([2, 1])]
    out = separate(gens, 2)
    assert isinstance(out, MeetsCorner)
    assert verify_meets_corner(gens, out.witness)


def test_hull_disjoint_examples():
    assert isinstance(separate([ExtVec([2, 0]), ExtVec([0, 2])], 2), Separated)
    assert not isinstance(separate([ExtVec([3, 0]), ExtVec([0, 3])], 2), Separated)
    assert isinstance(separate([ExtVec([1, 1])], 2), Separated)


def test_input_validation():
    with pytest.raises(EmptyList):
        separate([], 2)
    # no generators is the same error in the checks, not an IndexError
    with pytest.raises(EmptyList, match="at least one generator"):
        combination_point([], [])
    assert not verify_meets_corner([], [])
    with pytest.raises(DimensionMismatch):
        separate([ExtVec([1, 2, 3])], 2)
    with pytest.raises(DimensionMismatch):
        ExtVec([])


def test_separate_refuses_a_bool_dimension():
    # True == 1, the dimension of the generator (2), which meets the corner
    with pytest.raises(DimensionMismatch):
        separate([[2]], True)
    assert isinstance(separate([[2]], 1), MeetsCorner)


def test_separation_weights_invariants():
    with pytest.raises(ValueError):
        Separated((F(1, 2), F(1, 4)))
    with pytest.raises(ValueError):
        Separated((F(3, 2), F(-1, 2)))


def test_outcomes_are_exclusive_and_exhaustive():
    rng = random.Random(11)
    for _ in range(80):
        dim = rng.randint(1, 4)
        gens = [_rand_vec(rng, dim) for _ in range(rng.randint(1, 6))]
        out = separate(gens, dim)
        if isinstance(out, Separated):
            assert verify_separated(gens, out.weights, dim)
            assert isinstance(separate(gens, dim), Separated)
        else:
            assert verify_meets_corner(gens, out.witness)
            assert not isinstance(separate(gens, dim), Separated)


def test_separated_weights_score_corner_points_above_one():
    rng = random.Random(5)
    for _ in range(40):
        dim = rng.randint(1, 4)
        gens = [_rand_vec(rng, dim) for _ in range(rng.randint(1, 5))]
        out = separate(gens, dim)
        if not isinstance(out, Separated):
            continue
        for _ in range(10):
            entries = []
            for _ in range(dim):
                if rng.randrange(4) == 0:
                    entries.append(INF)
                else:
                    entries.append(ExtReal(rng.randint(9, 40), 8))
            y = ExtVec(entries)
            assert in_corner(y)
            total = ZERO
            for a, yi in zip(out.weights, y):
                total = total + ExtReal(a) * yi
            assert ONE < total


def test_agreement_with_the_exact_oracle():
    rng = random.Random(99)
    for _ in range(400):
        dim = rng.randint(1, 3)
        gens = [_rand_vec(rng, dim) for _ in range(rng.randint(1, 8))]
        lp_meets = isinstance(separate(gens, dim), MeetsCorner)
        assert hull_meets_corner(gens, dim) == lp_meets


def test_oracle_handles_edge_cases():
    assert hull_meets_corner([ExtVec([INF, INF])], 2)
    assert not hull_meets_corner([ExtVec([1, 1])], 2)
    assert hull_meets_corner([ExtVec([3, 0]), ExtVec([0, 3])], 2)
    assert not hull_meets_corner([ExtVec([2, 0]), ExtVec([0, 2])], 2)
    # no coordinate is finite on every generator: a slice of each lifts all to inf
    assert hull_meets_corner([ExtVec([INF, 0]), ExtVec([0, INF])], 2)
    assert not hull_meets_corner([ExtVec([INF, 1])], 2)
    with pytest.raises(ValueError):
        hull_meets_corner([], 2)
    with pytest.raises(ValueError):
        hull_meets_corner([ExtVec([1, 1])], 3)


def test_oracle_decides_a_hull_that_meets_the_corner_between_dyadic_weights():
    # the hull meets the corner exactly for weights (l, 1 - l) with l in
    # (33/100, 67/200), an interval holding no multiple of 1/32
    gens = [ExtVec([ExtReal(100, 33), 0]), ExtVec([0, ExtReal(200, 133)])]
    assert hull_meets_corner(gens, 2)
    out = separate(gens, 2)
    assert isinstance(out, MeetsCorner)
    # three steps of exact fictitious play: (100/33, 0), then (0, 200/133) twice
    assert out.witness == ((0, F(1, 3)), (1, F(2, 3)))
    assert verify_meets_corner(gens, out.witness)
    assert combination_point(gens, out.witness) == ExtVec([ExtReal(100, 99), ExtReal(400, 399)])


def test_determinism():
    gens = [ExtVec([3, 0]), ExtVec([0, 3]), ExtVec([INF, ExtReal(1, 2)])]
    first = separate(gens, 2)
    for _ in range(5):
        assert separate(gens, 2) == first


def test_verify_separated_rejects_generators_of_another_dimension():
    # the second generator is shorter than the weights; nothing is truncated
    assert not verify_separated([ExtVec([0, 0]), ExtVec([5])], [0, 1])


def test_separate_reads_only_the_forms_of_decoded_generators():
    from conedual.jsonio import decode_vectors

    gens = decode_vectors([["inf", "0", "2"], ["3", "3", "0"], ["0", "inf", "5"]], "$.g", "vectors")
    out = separate(gens, 3)
    assert isinstance(out, MeetsCorner) and verify_meets_corner(gens, out.witness)
    # no generator had its ExtReal entries built from its form
    assert all(g._entries is None for g in gens)
