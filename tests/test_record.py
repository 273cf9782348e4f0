"""The package's result records behave as frozen dataclasses did.

Each of the four record types keeps positional and keyword construction,
its ``__post_init__``, ``==`` only within one class, ``hash`` of the field
tuple, the dataclass ``repr`` bytes and an ``AttributeError`` on
assignment; the pinned reprs are the ones ``@dataclass(frozen=True)``
printed.
"""

from fractions import Fraction as F

import pytest

from conedual import (
    ClauseWitness,
    ExtReal,
    ExtVec,
    LinFun,
    MeetsCorner,
    Separated,
)

_HALVES = ExtVec([F(1, 2), F(1, 2)])

# (record, the same fields by keyword, its dataclass repr)
RECORDS = [
    (Separated(_HALVES),
     dict(weights=[F(1, 2), F(1, 2)]),
     "Separated(weights=(1/2, 1/2))"),
    (MeetsCorner(((0, ExtReal(1, 2)), (1, ExtReal(1, 2)))),
     dict(witness=((0, ExtReal(1, 2)), (1, ExtReal(1, 2)))),
     "MeetsCorner(witness=((0, ExtReal(1/2)), (1, ExtReal(1/2))))"),
    (ClauseWitness(LinFun([1, 1]), ExtVec([1]), ExtVec([F(1, 2)])),
     dict(fun=LinFun([1, 1]), weights=ExtVec([1]), certificate=ExtVec([F(1, 2)])),
     "ClauseWitness(fun=LinFun(1, 1), weights=(1), certificate=(1/2))"),
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
    # Separated and MeetsCorner each have one field, so their field tuples can agree
    cert = ExtVec([1])
    assert Separated(cert) != MeetsCorner(cert) and MeetsCorner(cert) != Separated(cert)
    assert len({MeetsCorner(cert), MeetsCorner(cert), Separated(cert)}) == 2


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="must sum to one"):
        Separated((F(1, 2),))


@pytest.mark.parametrize("build", [
    lambda: ClauseWitness(LinFun([1])),
    lambda: MeetsCorner((1,), (2,)),
    lambda: MeetsCorner(weights=(1,)),
    lambda: MeetsCorner((1,), witness=(1,)),
])
def test_wrong_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_separated_keeps_an_extvec_as_given_and_coerces_the_rest_once():
    assert Separated(_HALVES).weights is _HALVES
    ints = Separated([1, 0]).weights
    assert type(ints) is ExtVec and tuple(ints) == (F(1), F(0))
    assert all(type(v) is ExtReal for v in ints)
