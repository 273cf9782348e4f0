"""Finite T0 spaces as posets, their up-set topology, and the cone of
monotone extended-real functions.

On a finite poset the open sets are exactly the up-sets, and a function
into the extended nonnegative reals is lower semicontinuous exactly when it
is monotone.  Open sets are passed around as integer bitmasks over the
elements 0 .. n-1.
"""

from __future__ import annotations

from itertools import permutations

from .errors import (
    EmptyList,
    NotAntisymmetric,
    NotLSC,
    NotTransitive,
    PosetMismatch,
    TooLarge,
    _echo,
)
from .extreal import ExtReal, as_extvec, ext_max

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

    def __init__(self, size, pairs):
        """The reflexive closure of ``pairs`` on elements 0 .. size-1."""
        if type(size) is not int:
            raise TypeError(f"poset size must be an int, got {_echo(size)}")
        up = [1 << i for i in range(size)]
        for i, j in pairs:
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"pair {_echo((i, j))} must hold two ints")
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"pair ({i}, {j}) outside 0..{size - 1}")
            up[i] |= 1 << j
        if not up:
            raise ValueError("a poset needs at least one element")
        # witnesses are the lexicographically first, as a triple loop finds them
        for i in range(size):
            for j in _bits(up[i] & ~(1 << i)):
                if up[j] >> i & 1:
                    raise NotAntisymmetric(i, j)
        for i in range(size):
            for j in _bits(up[i]):
                missing = up[j] & ~up[i]
                if missing:
                    raise NotTransitive(i, j, (missing & -missing).bit_length() - 1)
        self.n = size
        self._up = tuple(up)

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


def all_opens(poset: FinitePoset):
    """All up-sets as bitmasks, in ascending mask order.

    The elements are visited by ascending up-set size, so each comes after
    every element strictly above it, and the visited ones always form an
    up-set.  The up-sets inside it are those found so far, and those plus
    the new element x that hold x's strict up-set; so each up-set is built
    once, in ``O(n)`` steps per up-set instead of ``n`` steps per mask.
    """
    if poset.n > _MAX_OPENS_SIZE:
        raise TooLarge(f"open-set enumeration is capped at {_MAX_OPENS_SIZE} elements")
    up = poset._up
    opens = [0]
    for x in sorted(range(poset.n), key=lambda i: up[i].bit_count()):
        bit = 1 << x
        above = up[x] ^ bit
        opens += [u | bit for u in opens if u & above == above]
    opens.sort()
    return opens


def is_lsc(values, poset: FinitePoset):
    """Monotonicity check; returns (True, None) or (False, violating pair)."""
    # the form's numerators order the finite entries; inf goes above them
    nums, _, inf, _ = as_extvec(values)._form
    if len(nums) != poset.n:
        raise ValueError(f"expected {poset.n} values, got {len(nums)}")
    top = max(nums) + 1
    vals = [top if inf >> i & 1 else v for i, v in enumerate(nums)]
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
        vec = as_extvec(values)
        ok, pair = is_lsc(vec, poset)
        if not ok:
            raise NotLSC(pair)
        self.poset = poset
        self._vec = vec

    @property
    def values(self) -> tuple:
        return self._vec.entries

    def __getitem__(self, i) -> ExtReal:
        return self._vec.entries[i]

    @classmethod
    def sup(cls, funs):
        funs = list(funs)
        if not funs:
            raise EmptyList("sup over an empty family")
        for f in funs[1:]:
            _same_poset(funs[0], f)
        n = funs[0].poset.n
        return cls(funs[0].poset, tuple(ext_max(f[i] for f in funs) for i in range(n)))

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
            poset = FinitePoset(n, rel)
        except NotTransitive:
            continue
        # the least relabelling names the isomorphism class
        key = min(tuple(sorted((p[i], p[j]) for i, j in rel)) for p in perms)
        found.setdefault(key, poset)
    return [found[key] for key in sorted(found)]
