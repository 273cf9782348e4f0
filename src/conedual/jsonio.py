"""Decoding and encoding of the wire formats used by the CLI.

Decoders raise ParseError with the JSON path of the offending field, so
malformed input reports where and what was expected.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, _echo
from .extreal import ExtReal, ExtVec, parse_extreal
from .finspace import FinitePoset, _bits
from .functionals import LinFun, OpenSetRep, SublinFun, SuperlinFun
from .valuations import SimpleValuation, ValuationOnOpens


def fail(path, expected, got):
    raise ParseError(f"{path}: expected {expected}, got {_echo(got)}")


def _entry(obj) -> ExtReal:
    """An extended rational from JSON; errors lack the path, which callers add."""
    if isinstance(obj, str):
        return parse_extreal(obj)
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f'expected "p/q", "p", or "inf", got {_echo(obj)}')
    if obj < 0:
        raise ParseError(f"expected a nonnegative value, got {_echo(obj)}")
    return ExtReal._raw(int(obj), 1)


def decode_extreal(obj, path) -> ExtReal:
    try:
        return _entry(obj)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def decode_vector(obj, path) -> ExtVec:
    """A vector decoded straight into ``ExtVec``'s integer form.

    One pass over the entries collects numerators, denominators and the
    infinity and nonzero masks, with the same ``strip``, ``partition`` and
    ``int`` calls as ``parse_extreal``, so it accepts the same strings;
    anything else goes through ``_entry``, which gives the value or the
    error message.  No ``ExtReal`` is built.
    """
    if not isinstance(obj, list) or not obj:
        fail(path, "a nonempty array of extended rationals", obj)
    nums = []
    dens = []
    inf = nonzero = 0
    bit = 1
    for v in obj:
        if type(v) is str:
            s = v.strip()
            if s == "inf":
                num, den = 0, 0
            else:
                num_s, sep, den_s = s.partition("/")
                try:
                    num = int(num_s)
                    den = int(den_s) if sep else 1
                except ValueError:
                    num = den = -1
                if num < 0 or den <= 0:
                    num, den = _vector_entry(v, path, len(nums))
        elif type(v) is int and v >= 0:
            num, den = v, 1
        else:
            num, den = _vector_entry(v, path, len(nums))
        if not den:
            # infinity: numerator 0, its bit in both masks
            num, den = 0, 1
            inf |= bit
            nonzero |= bit
        elif num:
            nonzero |= bit
        nums.append(num)
        dens.append(den)
        bit <<= 1
    return ExtVec._from_ratios(nums, dens, inf, nonzero)


def decode_vectors(obj, path, expected) -> list:
    """A nonempty array of vectors; ``expected`` names it in the error."""
    if not isinstance(obj, list) or not obj:
        fail(path, expected, obj)
    return [decode_vector(v, f"{path}[{i}]") for i, v in enumerate(obj)]


def _vector_entry(v, path, i):
    """(num, den) of entry i through ``_entry``, INF as den 0; its error
    message gets the entry's path, built only here."""
    try:
        e = _entry(v)
    except ParseError as exc:
        raise ParseError(f"{path}[{i}]: {exc}") from None
    return e.num, e.den


def decode_int(obj, path, minimum=None) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        fail(path, "an integer", obj)
    if minimum is not None and obj < minimum:
        fail(path, f"an integer >= {minimum}", obj)
    return obj


def require_key(obj, key, path):
    if not isinstance(obj, dict):
        fail(path, "an object", obj)
    if key not in obj:
        raise ParseError(f"{path}: missing key {key!r}")
    return obj[key]


_COEFF_ARRAYS = "a nonempty array of coefficient arrays"


def decode_functional(obj, path):
    kind = require_key(obj, "kind", path)
    if kind == "lin":
        return LinFun(decode_vector(require_key(obj, "coeffs", path), f"{path}.coeffs"))
    if kind in ("max", "min"):
        raw = require_key(obj, "branches", path)
        branches = decode_vectors(raw, f"{path}.branches", _COEFF_ARRAYS)
        return SublinFun(branches) if kind == "max" else SuperlinFun(branches)
    fail(f"{path}.kind", '"lin", "max", or "min"', kind)


def decode_sublinear(obj, path) -> SublinFun:
    f = decode_functional(obj, path)
    if isinstance(f, LinFun):
        return SublinFun([f])
    if isinstance(f, SublinFun):
        return f
    fail(f"{path}.kind", '"lin" or "max"', "min")


def decode_open_set(obj, path) -> OpenSetRep:
    raw = require_key(obj, "blocks", path)
    if not isinstance(raw, list):
        fail(f"{path}.blocks", "an array of blocks", raw)
    blocks = [decode_vectors(b, f"{path}.blocks[{i}]", _COEFF_ARRAYS) for i, b in enumerate(raw)]
    return OpenSetRep(blocks)


def decode_poset(obj, path) -> FinitePoset:
    size = decode_int(require_key(obj, "size", path), f"{path}.size", minimum=1)
    raw = require_key(obj, "leq", path)
    if not isinstance(raw, list):
        fail(f"{path}.leq", "an array of [i, j] pairs", raw)
    pairs = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            fail(f"{path}.leq[{i}]", "a pair [i, j]", pair)
        a, b = pair
        if not (type(a) is int and type(b) is int and 0 <= a < size and 0 <= b < size):
            # the paths are built only here, where some check fails
            a = decode_int(a, f"{path}.leq[{i}][0]", minimum=0)
            b = decode_int(b, f"{path}.leq[{i}][1]", minimum=0)
            if a >= size or b >= size:
                fail(f"{path}.leq[{i}]", f"indices below {size}", pair)
        pairs.append((a, b))
    return FinitePoset.from_pairs(size, pairs)


def decode_valuation(obj, poset, path) -> SimpleValuation:
    raw = require_key(obj, "weights", path)
    if not isinstance(raw, list) or len(raw) != poset.n:
        fail(f"{path}.weights", f"an array of {poset.n} extended rationals", raw)
    return SimpleValuation(poset, decode_vector(raw, f"{path}.weights"))


def decode_open_table(obj, poset, path) -> ValuationOnOpens:
    raw = require_key(obj, "table", path)
    if not isinstance(raw, list):
        fail(f"{path}.table", 'an array of {"open": [...], "value": ...}', raw)
    n = poset.n
    table = {}
    for i, entry in enumerate(raw):
        where = f"{path}.table[{i}]"
        members = require_key(entry, "open", where)
        if not isinstance(members, list):
            fail(f"{where}.open", "an array of element indices", members)
        mask = 0
        for k, e in enumerate(members):
            if not (type(e) is int and 0 <= e < n):
                # the member's path is built only when it fails
                e = decode_int(e, f"{where}.open[{k}]", minimum=0)
                if e >= n:
                    fail(f"{where}.open[{k}]", f"indices below {n}", e)
            mask |= 1 << e
        value = decode_extreal(require_key(entry, "value", where), f"{where}.value")
        if mask in table:
            raise ParseError(f"{where}: duplicate open set")
        table[mask] = value
    try:
        return ValuationOnOpens(poset, table)
    except ValueError as exc:
        raise ParseError(f"{path}.table: {exc}") from None


def encode_fraction(v) -> str:
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def encode_vector(vec) -> list:
    return [str(v) for v in vec]


def encode_fractions(values) -> list:
    return [encode_fraction(v) for v in values]


def mask_to_indices(mask: int) -> list:
    return list(_bits(mask))
