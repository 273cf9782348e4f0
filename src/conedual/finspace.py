"""Finite T0 spaces as posets, their up-set topology, and the cone of
monotone extended-real functions.

On a finite poset the open sets are exactly the up-sets, and a function
into the extended nonnegative reals is lower semicontinuous exactly when it
is monotone.  Open sets are passed around as integer bitmasks over the
elements 0 .. n-1.
"""

from __future__ import annotations

from itertools import compress, permutations

from .errors import (
    EmptyList,
    NotAntisymmetric,
    NotLSC,
    NotReflexive,
    NotTransitive,
    NotUpSet,
    PosetMismatch,
    TooLarge,
)
from .extreal import ZERO, ExtReal, ExtVec, as_extreal, as_extvec, ext_max, ext_min

_MAX_OPENS_SIZE = 12
_MAX_ISO_SIZE = 5


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """Validated partial order on elements 0 .. size-1, stored as the
    up-set bitmask of each element."""

    __slots__ = ("n", "_up")

    def __init__(self, table):
        rows = tuple(tuple(map(bool, row)) for row in table)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("relation table must be square and nonempty")
        self._set_up(tuple(sum(1 << j for j in compress(range(n), row)) for row in rows))

    @classmethod
    def from_pairs(cls, size, pairs, add_reflexive=True):
        up = [1 << i for i in range(size)] if add_reflexive else [0] * size
        for i, j in pairs:
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"pair ({i}, {j}) outside 0..{size - 1}")
            up[i] |= 1 << j
        if not up:
            raise ValueError("relation table must be square and nonempty")
        poset = object.__new__(cls)
        poset._set_up(tuple(up))
        return poset

    def _set_up(self, up):
        """Validate the up-set masks of a nonempty relation and keep them."""
        n = len(up)
        # witnesses are the lexicographically first, as a triple loop finds them
        for i in range(n):
            if not up[i] >> i & 1:
                raise NotReflexive(i)
        for i in range(n):
            for j in _bits(up[i] & ~(1 << i)):
                if up[j] >> i & 1:
                    raise NotAntisymmetric(i, j)
        for i in range(n):
            for j in _bits(up[i]):
                missing = up[j] & ~up[i]
                if missing:
                    raise NotTransitive(i, j, (missing & -missing).bit_length() - 1)
        self.n = n
        self._up = up

    def leq(self, i, j) -> bool:
        return bool(self._up[i] >> j & 1)

    def up_mask(self, i) -> int:
        """Bitmask of the principal filter of i."""
        return self._up[i]

    def is_up_closed(self, mask) -> bool:
        for i in range(self.n):
            if mask >> i & 1 and self._up[i] & ~mask:
                return False
        return True

    def pairs(self):
        return [(i, j) for i, up in enumerate(self._up) for j in _bits(up)]

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self._up == other._up

    def __hash__(self):
        return hash(self._up)

    def __repr__(self):
        rel = [(i, j) for i, j in self.pairs() if i != j]
        return f"FinitePoset(n={self.n}, leq={rel})"


def validate_poset(table) -> FinitePoset:
    """Validate a square relation table; raises with a witness on failure."""
    return FinitePoset(table)


def all_opens(poset: FinitePoset, max_size: int = _MAX_OPENS_SIZE):
    """All up-sets as bitmasks, in ascending mask order."""
    if poset.n > max_size:
        raise TooLarge(f"open-set enumeration is capped at {max_size} elements")
    return [mask for mask in range(1 << poset.n) if poset.is_up_closed(mask)]


def is_lsc(values, poset: FinitePoset):
    """Monotonicity check; returns (True, None) or (False, violating pair)."""
    if type(values) is ExtVec:
        # the form's numerators order the finite entries; inf goes above them
        nums, _, inf, _ = values._form
        top = max(nums) + 1
        vals = [top if inf >> i & 1 else v for i, v in enumerate(nums)]
    else:
        vals = [as_extreal(v) for v in values]
    if len(vals) != poset.n:
        raise ValueError(f"expected {poset.n} values, got {len(vals)}")
    # only the pairs of the order, ascending, so the first witness is the
    # lexicographically first violating pair
    for i, v in enumerate(vals):
        for j in _bits(poset.up_mask(i)):
            if not v <= vals[j]:
                return False, (i, j)
    return True, None


class LscFun:
    """Monotone function from a finite poset into the extended reals."""

    __slots__ = ("poset", "_vec")

    def __init__(self, poset: FinitePoset, values):
        if type(values) is not ExtVec:
            values = tuple(values)
        ok, pair = is_lsc(values, poset)
        if not ok:
            raise NotLSC(pair)
        self.poset = poset
        self._vec = as_extvec(values)

    @property
    def values(self) -> tuple:
        return self._vec.entries

    def __getitem__(self, i) -> ExtReal:
        return self._vec.entries[i]

    def __add__(self, other):
        if not isinstance(other, LscFun):
            return NotImplemented
        _same_poset(self, other)
        return LscFun(self.poset, self._vec + other._vec)

    def scale(self, r) -> "LscFun":
        return LscFun(self.poset, self._vec.scale(r))

    @classmethod
    def sup(cls, funs):
        funs = list(funs)
        if not funs:
            raise EmptyList("sup over an empty family")
        for f in funs[1:]:
            _same_poset(funs[0], f)
        n = funs[0].poset.n
        return cls(funs[0].poset, tuple(ext_max(f[i] for f in funs) for i in range(n)))

    @classmethod
    def inf(cls, funs):
        funs = list(funs)
        if not funs:
            raise EmptyList("inf over an empty family")
        for f in funs[1:]:
            _same_poset(funs[0], f)
        n = funs[0].poset.n
        return cls(funs[0].poset, tuple(ext_min(f[i] for f in funs) for i in range(n)))

    def __eq__(self, other):
        if not isinstance(other, LscFun):
            return NotImplemented
        return self.poset == other.poset and self._vec == other._vec

    def __hash__(self):
        return hash((self.poset, self._vec))

    def __repr__(self):
        return "LscFun(" + ", ".join(str(v) for v in self.values) + ")"


def _same_poset(a, b):
    if a.poset != b.poset:
        raise PosetMismatch("operands live over different posets")


def step(poset: FinitePoset, r, open_mask: int) -> LscFun:
    """The function r on the open set and zero elsewhere."""
    if not poset.is_up_closed(open_mask):
        raise NotUpSet(f"mask {open_mask:b} is not an up-set", witness=open_mask)
    r = as_extreal(r)
    return LscFun(poset, tuple(r if open_mask >> i & 1 else ZERO for i in range(poset.n)))


def to_steps(f: LscFun):
    """Decompose into steps whose pointwise supremum is exactly f.

    One step per distinct nonzero value v, supported on the up-set where f
    reaches at least v.  Returned in ascending value order.
    """
    levels = sorted({v for v in f.values if not v.is_zero})
    out = []
    for v in levels:
        mask = sum(1 << i for i in range(f.poset.n) if v <= f[i])
        out.append((v, mask))
    return out


def posets_up_to_iso(n: int):
    """All posets on n elements up to isomorphism, in a canonical order.

    Representatives are topologically labelled: i <= j in the order implies
    i <= j as integers.
    """
    if n < 1:
        raise ValueError("poset size must be positive")
    if n > _MAX_ISO_SIZE:
        raise TooLarge(f"poset enumeration is capped at {_MAX_ISO_SIZE} elements")
    # pairs i < j keep every candidate reflexive and antisymmetric
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    perms = list(permutations(range(n)))
    found = {}
    for bits in range(1 << len(pairs)):
        rel = [pairs[t] for t in range(len(pairs)) if bits >> t & 1]
        try:
            poset = FinitePoset.from_pairs(n, rel)
        except NotTransitive:
            continue
        # the least relabelling names the isomorphism class
        key = min(tuple(sorted((p[i], p[j]) for i, j in rel)) for p in perms)
        found.setdefault(key, poset)
    return [found[key] for key in sorted(found)]
