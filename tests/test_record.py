"""The package's result records behave as frozen dataclasses did.

Each of the nine record types keeps positional and keyword construction,
its ``__post_init__``, ``==`` only within one class, ``hash`` of the field
tuple, the dataclass ``repr`` bytes and an ``AttributeError`` on
assignment; the pinned reprs are the ones ``@dataclass(frozen=True)``
printed.
"""

from fractions import Fraction as F

import pytest

from conedual import (
    ClauseWitness,
    Constraint,
    LinFun,
    LPInfeasible,
    LPOptimal,
    LPProblem,
    LPUnbounded,
    MeetsCorner,
    SeparationWeights,
    Separated,
    solve_lp,
)

_HALVES = SeparationWeights((F(1, 2), F(1, 2)))

# (record, the same fields by keyword, its dataclass repr)
RECORDS = [
    (Constraint((1, F(1, 2)), "<=", 3),
     dict(coeffs=(F(1), F(1, 2)), rel="<=", rhs=F(3)),
     "Constraint(coeffs=(Fraction(1, 1), Fraction(1, 2)), rel='<=', rhs=Fraction(3, 1))"),
    (LPProblem(2, [((1, 1), "==", 1)], (0, F(1, 2)), "min"),
     dict(n_vars=2, constraints=(Constraint((1, 1), "==", 1),), objective=(0, F(1, 2)), sense="min"),
     "LPProblem(n_vars=2, constraints=(Constraint(coeffs=(Fraction(1, 1), Fraction(1, 1)), "
     "rel='==', rhs=Fraction(1, 1)),), objective=(0, Fraction(1, 2)), sense='min')"),
    (LPOptimal((F(1), F(0)), F(1, 2), (F(3),)),
     dict(point=(F(1), F(0)), value=F(1, 2), dual=(F(3),)),
     "LPOptimal(point=(Fraction(1, 1), Fraction(0, 1)), value=Fraction(1, 2), dual=(Fraction(3, 1),))"),
    (LPInfeasible((F(1), F(-1))),
     dict(certificate=(F(1), F(-1))),
     "LPInfeasible(certificate=(Fraction(1, 1), Fraction(-1, 1)))"),
    (LPUnbounded((F(1), F(0))),
     dict(ray=(F(1), F(0))),
     "LPUnbounded(ray=(Fraction(1, 1), Fraction(0, 1)))"),
    (_HALVES,
     dict(values=(F(1, 2), F(1, 2))),
     "SeparationWeights(values=(Fraction(1, 2), Fraction(1, 2)))"),
    (Separated(_HALVES),
     dict(weights=SeparationWeights([F(1, 2), F(1, 2)])),
     "Separated(weights=SeparationWeights(values=(Fraction(1, 2), Fraction(1, 2))))"),
    (MeetsCorner(((0, F(1, 2)), (1, F(1, 2)))),
     dict(witness=((0, F(1, 2)), (1, F(1, 2)))),
     "MeetsCorner(witness=((0, Fraction(1, 2)), (1, Fraction(1, 2))))"),
    (ClauseWitness(LinFun([1, 1]), (F(1),), (F(1, 2),)),
     dict(fun=LinFun([1, 1]), weights=(F(1),), certificate=(F(1, 2),)),
     "ClauseWitness(fun=LinFun(1, 1), weights=(Fraction(1, 1),), certificate=(Fraction(1, 2),))"),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_keyword_construction_equality_and_hash(record, fields, text):
    assert record._fields == tuple(fields)
    twin = type(record)(**fields)
    assert twin == record and not twin != record
    values = tuple(getattr(record, name) for name in record._fields)
    assert hash(twin) == hash(record) == hash(values)
    # a record is not its field tuple, as a NamedTuple would be
    assert record != values


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_repr(record, fields, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_records_are_frozen(record, fields, text):
    name = record._fields[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert getattr(record, name) is before


def test_equality_stays_within_one_class():
    cert = (F(1), F(0))
    assert LPInfeasible(cert) != LPUnbounded(cert)
    assert LPUnbounded(cert) != LPInfeasible(cert)
    assert MeetsCorner(cert) != LPInfeasible(cert) and LPInfeasible(cert) != MeetsCorner(cert)
    assert len({LPInfeasible(cert), LPInfeasible(cert), LPUnbounded(cert)}) == 2


def test_sense_defaults_to_max_and_post_init_still_validates():
    problem = LPProblem(1, [((1,), "<=", 1)], (1,))
    assert problem.sense == "max"
    assert problem == LPProblem(n_vars=1, constraints=[((1,), "<=", 1)], objective=(1,), sense="max")
    # __post_init__ normalises the fields, as it did under @dataclass
    assert problem.constraints == (Constraint((F(1),), "<=", F(1)),)
    with pytest.raises(ValueError, match="must sum to one"):
        SeparationWeights((F(1, 2),))


@pytest.mark.parametrize("build", [
    lambda: LPProblem(1),
    lambda: LPInfeasible((1,), (2,)),
    lambda: LPInfeasible(ray=(1,)),
    lambda: LPInfeasible((1,), certificate=(1,)),
])
def test_wrong_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_separation_weights_keep_fraction_entries_as_given():
    half = F(1, 2)
    assert all(v is half for v in SeparationWeights((half, half)).values)
    ints = SeparationWeights([1, 0]).values
    assert ints == (F(1), F(0)) and all(type(v) is F for v in ints)


def test_caches_beside_the_fields_stay_out_of_eq_hash_and_repr():
    problem = LPProblem(2, [((1, 1), "<=", 1)], (1, 2))
    result = solve_lp(problem)
    assert "_ints" in vars(result) and "_rows" in vars(problem)
    twin = LPOptimal(result.point, result.value, result.dual)
    assert "_ints" not in vars(twin)
    assert result == twin and hash(result) == hash(twin) and repr(result) == repr(twin)
    fresh = LPProblem(2, [((1, 1), "<=", 1)], (1, 2))
    assert problem == fresh and hash(problem) == hash(fresh) and repr(problem) == repr(fresh)
