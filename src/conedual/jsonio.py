"""Decoding of the wire formats used by the CLI.

Decoders raise ParseError with the JSON path of the offending field, so
malformed input reports where and what was expected.
"""

from __future__ import annotations

from .errors import ParseError, TooLarge, _echo
from .extreal import INF, ExtReal, ExtVec, _PendingVec, _parse_ratio
from .finspace import FinitePoset
from .functionals import LinFun, OpenSetRep, SublinFun
from .valuations import SimpleValuation, ValuationOnOpens


def fail(path, expected, got):
    raise ParseError(f"{path}: expected {expected}, got {_echo(got)}")


# Entry strings already parsed, each to its reduced (num, den), inf as den 0.
# Input repeats few distinct strings many times, so most entries are hits,
# which skip the parser.  Bounded against input that never repeats: a key
# has at most _KEY_MAX characters, and the memo is cleared once it holds
# _ENTRIES_MAX keys.  A value depends on its key alone, so every caller in the
# process may share it.
_ENTRIES = {}
_KEY_MAX = 32
_ENTRIES_MAX = 4096


def _miss(obj):
    """(num, den) of an entry the memo lacks, inf as den 0; errors lack the path,
    which callers add.  A ``str`` of at most ``_KEY_MAX`` characters that parses is stored."""
    if isinstance(obj, str):
        pair = _parse_ratio(obj)
        if type(obj) is str and len(obj) <= _KEY_MAX:
            if len(_ENTRIES) >= _ENTRIES_MAX:
                _ENTRIES.clear()
            _ENTRIES[obj] = pair
        return pair
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f'expected "p/q", "p", or "inf", got {_echo(obj)}')
    if obj < 0:
        raise ParseError(f"expected a nonnegative value, got {_echo(obj)}")
    return int(obj), 1


def decode_extreal(obj, path) -> ExtReal:
    pair = _ENTRIES.get(obj) if type(obj) is str else None
    if pair is None:
        try:
            pair = _miss(obj)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None
    num, den = pair
    return ExtReal._raw(num, den) if den else INF


def decode_vector(obj, path) -> ExtVec:
    """A vector decoded straight into ``ExtVec``'s integer form; see
    ``_decode_family``.  Every error message starts with ``path``."""
    return _decode_family((obj,), path, False)[0]


def decode_vectors(obj, path, expected) -> list:
    """A nonempty array of vectors; ``expected`` names it in the error.

    As in ``decode_vector``, every error message starts with ``path``.
    """
    if not isinstance(obj, list) or not obj:
        fail(path, expected, obj)
    return _decode_family(obj, path, True)


def _decode_family(items, path, indexed, vec=ExtVec):
    """The vectors of ``items`` in one pass over them and their entries.

    Each entry is read into numerators, denominators and the infinity and
    nonzero masks.  A ``str`` entry is looked up in ``_ENTRIES``; a miss,
    and any entry but a nonnegative ``int``, goes through ``_miss``, which
    gives the value or the error message.  No ``ExtReal`` is built, and
    every ratio is in lowest terms, so ``vec._from_ratios`` builds each
    vector's form once with no gcd: at once for ``ExtVec``, on first read
    for ``_PendingVec``.  Item ``i``'s path is ``path[i]`` when ``indexed``,
    else ``path``; it is built only when the item fails.
    """
    entry = _ENTRIES.get
    from_ratios = vec._from_ratios
    out = []
    for obj in items:
        if not isinstance(obj, list) or not obj:
            fail(_item_path(path, indexed, len(out)), "a nonempty array of extended rationals", obj)
        nums = []
        dens = []
        inf = nonzero = 0
        bit = 1
        for v in obj:
            if type(v) is str:
                # a stored pair is a nonempty tuple, so a miss alone parses
                num, den = entry(v) or _vector_entry(v, path, indexed, len(out), len(nums))
            elif type(v) is int and v >= 0:
                num, den = v, 1
            else:
                num, den = _vector_entry(v, path, indexed, len(out), len(nums))
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
        out.append(from_ratios(nums, dens, inf, nonzero, reduced=True))
    return out


def _item_path(path, indexed, i):
    return f"{path}[{i}]" if indexed else path


def _vector_entry(v, path, indexed, i, k):
    """(num, den) of entry k of item i through ``_miss``, INF as den 0; its
    error message gets the entry's path, built only here."""
    try:
        return _miss(v)
    except ParseError as exc:
        raise ParseError(f"{_item_path(path, indexed, i)}[{k}]: {exc}") from None


def decode_int(obj, path, minimum) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        fail(path, "an integer", obj)
    if obj < minimum:
        fail(path, f"an integer >= {minimum}", obj)
    return obj


def require_key(obj, key, path):
    if not isinstance(obj, dict):
        fail(path, "an object", obj)
    if key not in obj:
        raise ParseError(f"{path}: missing key {key!r}")
    return obj[key]


_COEFF_ARRAYS = "a nonempty array of coefficient arrays"


def decode_sublinear(obj, path) -> SublinFun:
    kind = require_key(obj, "kind", path)
    if kind == "lin":
        coeffs = decode_vector(require_key(obj, "coeffs", path), f"{path}.coeffs")
        return SublinFun([LinFun(coeffs)])
    if kind == "max":
        raw = require_key(obj, "branches", path)
        return SublinFun(decode_vectors(raw, f"{path}.branches", _COEFF_ARRAYS))
    fail(f"{path}.kind", '"lin" or "max"', kind)


def decode_open_set(obj, path) -> OpenSetRep:
    """The blocks' vectors are checked in full here but build their forms on
    first read, as ``minkowski`` leaves most of them unread."""
    raw = require_key(obj, "blocks", path)
    if not isinstance(raw, list):
        fail(f"{path}.blocks", "an array of blocks", raw)
    blocks = []
    try:
        for block in raw:
            if not isinstance(block, list) or not block:
                fail("", _COEFF_ARRAYS, block)
            blocks.append(_decode_family(block, "", True, _PendingVec))
    except ParseError as exc:
        # a block's path is built only when it fails
        raise ParseError(f"{path}.blocks[{len(blocks)}]{exc}") from None
    return OpenSetRep(blocks)


# FinitePoset builds one mask of up to n bits per element, about n^2 / 16
# bytes in all, before anything else looks at n; 4,096 elements is 1 MB.
_MAX_POSET_SIZE = 4096


def decode_poset(obj, path) -> FinitePoset:
    size = decode_int(require_key(obj, "size", path), f"{path}.size", minimum=1)
    if size > _MAX_POSET_SIZE:
        raise TooLarge(f"{path}.size: a poset has at most {_MAX_POSET_SIZE} elements, got {_echo(size)}")
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
    return FinitePoset(size, pairs)


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

