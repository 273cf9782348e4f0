"""Exact arithmetic in the extended nonnegative reals: rationals >= 0 plus +inf.

Conventions: r + inf = inf for every r, r * inf = inf for r > 0, and
0 * inf = 0.  The order is total with +inf on top.  Values are reduced at
construction, immutable by convention, and hashable, so equality is
structural.  No floating point is used anywhere.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatch, EmptyList, ParseError, UndefinedDifference, _echo

__all__ = [
    "ExtReal",
    "ExtVec",
    "INF",
    "ZERO",
    "ONE",
    "as_extreal",
    "as_extvec",
    "ext_min",
    "ext_max",
    "ext_sup",
    "sub_partial",
    "parse_extreal",
]

_HASH_INF = sys.hash_info.inf
_HASH_MODULUS = sys.hash_info.modulus


class ExtReal:
    """A nonnegative rational in lowest terms, or +inf (encoded as den == 0)."""

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        if type(num) is not int or type(den) is not int:
            if isinstance(num, Fraction) and den == 1:
                num, den = num.numerator, num.denominator
            if isinstance(num, ExtReal) and den == 1:
                self.num = num.num
                self.den = num.den
                return
            if not isinstance(num, int) or not isinstance(den, int):
                raise TypeError(f"expected integers, got {num!r}/{den!r}")
        if den <= 0:
            raise ValueError("denominator must be positive")
        if num < 0:
            raise ValueError("negative values are outside the extended nonnegative reals")
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g

    @classmethod
    def _raw(cls, num, den):
        v = object.__new__(cls)
        v.num = num
        v.den = den
        return v

    @classmethod
    def from_fraction(cls, f: Fraction) -> "ExtReal":
        if f < 0:
            raise ValueError("negative values are outside the extended nonnegative reals")
        return cls._raw(f.numerator, f.denominator)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def is_finite(self) -> bool:
        return self.den != 0

    @property
    def is_zero(self) -> bool:
        return self.num == 0 and self.den != 0

    def as_fraction(self) -> Fraction:
        if self.den == 0:
            raise ValueError("infinity has no rational value")
        return Fraction(self.num, self.den)

    def __add__(self, other):
        other = as_extreal(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == 0 or other.den == 0:
            return INF
        num = self.num * other.den + other.num * self.den
        den = self.den * other.den
        g = gcd(num, den)
        return ExtReal._raw(num // g, den // g)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_extreal(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == 0:
            return ZERO if other.num == 0 and other.den != 0 else INF
        if other.den == 0:
            return ZERO if self.num == 0 else INF
        g1 = gcd(self.num, other.den)
        g2 = gcd(other.num, self.den)
        return ExtReal._raw(
            (self.num // g1) * (other.num // g2),
            (self.den // g2) * (other.den // g1),
        )

    __rmul__ = __mul__

    def __sub__(self, other):
        other = as_extreal(other)
        if other is NotImplemented:
            return NotImplemented
        if other.den == 0:
            raise UndefinedDifference("cannot subtract infinity")
        if self.den == 0:
            return INF
        num = self.num * other.den - other.num * self.den
        if num < 0:
            raise UndefinedDifference(f"{other} exceeds {self}")
        den = self.den * other.den
        g = gcd(num, den)
        return ExtReal._raw(num // g, den // g)

    def __truediv__(self, other):
        other = as_extreal(other)
        if other is NotImplemented:
            return NotImplemented
        if other.den == 0:
            raise ValueError("division by infinity is not supported")
        if other.num == 0:
            raise ZeroDivisionError("division by zero")
        if self.den == 0:
            return INF
        return ExtReal(self.num * other.den, self.den * other.num)

    def __le__(self, other):
        other = as_extreal(other)
        if other is NotImplemented:
            return NotImplemented
        if other.den == 0:
            return True
        if self.den == 0:
            return False
        return self.num * other.den <= other.num * self.den

    def __lt__(self, other):
        other = as_extreal(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == 0:
            return False
        if other.den == 0:
            return True
        return self.num * other.den < other.num * self.den

    def __ge__(self, other):
        other = as_extreal(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__le__(self)

    def __gt__(self, other):
        other = as_extreal(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__lt__(self)

    def __eq__(self, other):
        other = as_extreal(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # Fraction.__hash__ on the reduced, nonnegative (num, den), without
        # building the Fraction, so hash(ExtReal(q)) == hash(Fraction(q)).
        # INF's den == 0 is a multiple of the modulus, as float("inf") hashes.
        den = self.den
        if den == 1:
            return hash(self.num)
        if den % _HASH_MODULUS == 0:
            return _HASH_INF
        return hash(hash(self.num) * pow(den, -1, _HASH_MODULUS))

    def __bool__(self):
        return self.num != 0

    def __str__(self):
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"ExtReal({self})"


ZERO = ExtReal._raw(0, 1)
ONE = ExtReal._raw(1, 1)
INF = ExtReal._raw(1, 0)


def as_extreal(x):
    """Coerce an int, Fraction, or ExtReal; NotImplemented otherwise."""
    if isinstance(x, ExtReal):
        return x
    if isinstance(x, int):
        if x < 0:
            raise ValueError("negative values are outside the extended nonnegative reals")
        return ExtReal._raw(x, 1)
    if isinstance(x, Fraction):
        return ExtReal.from_fraction(x)
    return NotImplemented


def sub_partial(a, b) -> ExtReal:
    """a - b, defined only when b is finite and b <= a."""
    a = as_extreal(a)
    return a - b


def ext_min(values) -> ExtReal:
    vs = [as_extreal(v) for v in values]
    if not vs:
        raise EmptyList("min over an empty collection")
    out = vs[0]
    for v in vs[1:]:
        if v < out:
            out = v
    return out


def ext_max(values) -> ExtReal:
    vs = [as_extreal(v) for v in values]
    if not vs:
        raise EmptyList("max over an empty collection")
    out = vs[0]
    for v in vs[1:]:
        if out < v:
            out = v
    return out


# For nonempty finite collections the supremum is attained.
ext_sup = ext_max


def parse_extreal(text: str) -> ExtReal:
    """Parse "p/q" (reduced or not), the integer shorthand "p", or "inf"."""
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    s = text.strip()
    if s == "inf":
        return INF
    num_s, sep, den_s = s.partition("/")
    try:
        num = int(num_s)
        den = int(den_s) if sep else 1
    except ValueError:
        raise ParseError(f"not an extended rational: {_echo(text)}") from None
    if num < 0:
        raise ParseError(f"negative values are rejected: {_echo(text)}")
    if den == 0:
        raise ParseError(f"zero denominator: {_echo(text)}")
    if den < 0:
        raise ParseError(f"negative denominator: {_echo(text)}")
    g = gcd(num, den)
    return ExtReal._raw(num // g, den // g)


def _canonical_form(nums, dens, inf, nonzero):
    """``ExtVec``'s form: (numerators over d, d, infinity mask, nonzero mask),
    d the lcm of the reduced finite denominators (1 when there are none).

    The arguments are numerators over their own denominators, reduced or
    not, with 0 over 1 at infinite coordinates, whose bits are set in both
    masks.  The numerators are put over the lcm of the denominators, then
    it and every numerator are divided by their gcd: no gcd per entry.
    Equal vectors get equal forms.
    """
    d = lcm(*dens)
    if d != 1:
        nums = [n * (d // q) for n, q in zip(nums, dens)]
        g = gcd(d, *nums)
        if g != 1:
            d //= g
            nums = [n // g for n in nums]
    return (tuple(nums), d, inf, nonzero)


class ExtVec:
    """A point of the extended nonnegative orthant with a fixed dimension.

    Its one state is the canonical form that ``_canonical_form`` computes at
    construction, so ``==``, ``hash`` and ``dot`` read only the form.  The
    ``ExtReal`` entries are a cache: kept when given, else built from the
    form on first access.  Immutable by convention.
    """

    __slots__ = ("_entries", "_form")

    def __init__(self, entries):
        entries = tuple(entries)
        for e in entries:
            if type(e) is not ExtReal:
                # coerce everything once some entry is not an ExtReal yet
                entries = tuple(as_extreal(e) for e in entries)
                if any(e is NotImplemented for e in entries):
                    raise TypeError("entries must be ExtReal, int, or Fraction")
                break
        if not entries:
            raise DimensionMismatch("vectors must have positive dimension")
        nums = []
        dens = []
        inf = nonzero = 0
        bit = 1
        for e in entries:
            if e.den:
                nums.append(e.num)
                dens.append(e.den)
                if e.num:
                    nonzero |= bit
            else:
                nums.append(0)
                dens.append(1)
                inf |= bit
                nonzero |= bit
            bit <<= 1
        self._entries = entries
        self._form = _canonical_form(nums, dens, inf, nonzero)

    @classmethod
    def _from_ratios(cls, nums, dens, inf, nonzero):
        """A vector straight from ``_canonical_form``'s arguments."""
        v = object.__new__(cls)
        v._entries = None
        v._form = _canonical_form(nums, dens, inf, nonzero)
        return v

    @property
    def entries(self) -> tuple:
        """The reduced ``ExtReal`` entries, built from the form once."""
        entries = self._entries
        if entries is None:
            nums, d, inf, _ = self._form
            out = []
            bit = 1
            for n in nums:
                if inf & bit:
                    out.append(INF)
                else:
                    g = gcd(n, d)
                    out.append(ExtReal._raw(n // g, d // g))
                bit <<= 1
            entries = self._entries = tuple(out)
        return entries

    @property
    def dim(self) -> int:
        return len(self._form[0])

    def dot(self, other: "ExtVec") -> ExtReal:
        """The pairing sum_i a_i b_i, one integer dot product over the two
        vectors' common denominators.

        A term is infinite exactly when one factor is infinite and the other
        nonzero (0 * inf = 0); infinite entries carry numerator 0, so the
        finite terms sum correctly either way.
        """
        an, ad, a_inf, a_nonzero = self._form
        bn, bd, b_inf, b_nonzero = other._form
        if len(an) != len(bn):
            raise DimensionMismatch(f"{len(an)} versus {len(bn)}")
        if a_inf & b_nonzero or b_inf & a_nonzero:
            return INF
        num = sum(map(mul, an, bn))
        den = ad * bd
        g = gcd(num, den)
        return ExtReal._raw(num // g, den // g)

    def scale(self, r) -> "ExtVec":
        r = as_extreal(r)
        return ExtVec(tuple(r * e for e in self.entries))

    def __add__(self, other):
        if not isinstance(other, ExtVec):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch(f"{self.dim} versus {other.dim}")
        return ExtVec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __iter__(self):
        return iter(self._entries or self.entries)

    def __len__(self):
        return len(self._form[0])

    def __getitem__(self, i):
        return (self._entries or self.entries)[i]

    def __eq__(self, other):
        if not isinstance(other, ExtVec):
            return NotImplemented
        # the nonzero mask follows from the rest, so this compares (nums, d, inf)
        return self._form == other._form

    def __hash__(self):
        return hash(self._form)

    def __repr__(self):
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


def as_extvec(x) -> ExtVec:
    return x if isinstance(x, ExtVec) else ExtVec(x)
