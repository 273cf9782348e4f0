"""Exact arithmetic in the extended nonnegative reals: rationals >= 0 plus +inf.

Conventions: r + inf = inf for every r, r * inf = inf for r > 0, and
0 * inf = 0.  The order is total with +inf on top.  Values are reduced at
construction, immutable by convention, and hashable, so equality is
structural.  Vectors keep an integer form, and every weighted sum of
vectors is one routine on the forms.  A vector builds its form at
construction, except an open-set block's, which the JSON decoder leaves to
its first read.  No floating point is used anywhere.
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
    "parse_extreal",
]

_HASH_INF = sys.hash_info.inf
_HASH_MODULUS = sys.hash_info.modulus


class ExtReal:
    """A nonnegative rational in lowest terms, or +inf (encoded as den == 0)."""

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        # a bool is not an int here, as everywhere in the package
        if type(num) is not int or type(den) is not int:
            if type(den) is int and den == 1:
                if isinstance(num, Fraction):
                    # a Fraction is in lowest terms with a positive denominator
                    if num.numerator < 0:
                        raise ValueError("negative values are outside the extended nonnegative reals")
                    self.num = num.numerator
                    self.den = num.denominator
                    return
                if isinstance(num, ExtReal):
                    self.num = num.num
                    self.den = num.den
                    return
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
    """Coerce an int, Fraction, or ExtReal; NotImplemented otherwise, a bool included."""
    if isinstance(x, ExtReal):
        return x
    if type(x) is int or isinstance(x, Fraction):
        if x < 0:
            raise ValueError("negative values are outside the extended nonnegative reals")
        return ExtReal._raw(x.numerator, x.denominator)
    return NotImplemented


def ext_min(values) -> ExtReal:
    vs = [v if isinstance(v, ExtReal) else ExtReal(v) for v in values]
    if not vs:
        raise EmptyList("min over an empty collection")
    return min(vs)


def ext_max(values) -> ExtReal:
    vs = [v if isinstance(v, ExtReal) else ExtReal(v) for v in values]
    if not vs:
        raise EmptyList("max over an empty collection")
    return max(vs)


def parse_extreal(text: str) -> ExtReal:
    """Parse "p/q" (reduced or not), the integer shorthand "p", or "inf"."""
    num, den = _parse_ratio(text)
    return ExtReal._raw(num, den) if den else INF


def _parse_ratio(text):
    """The one parser: ``parse_extreal``'s value as ``(num, den)``, inf as ``(1, 0)``.

    Past outer whitespace, the text is ``inf`` or ASCII digits, optionally
    followed by ``/`` and ASCII digits: no sign, underscore or inner space.
    A ``-`` leading either side is reported as a negative value or
    denominator.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    s = text.strip()
    if s == "inf":
        return 1, 0
    num_s, sep, den_s = s.partition("/")
    try:
        if not (s.isascii() and num_s.removeprefix("-").isdigit()
                and (not sep or den_s.removeprefix("-").isdigit())):
            raise ValueError
        num = int(num_s)
        den = int(den_s) if sep else 1
    except ValueError:
        raise ParseError(f"not an extended rational: {_echo(text)}") from None
    if num_s[0] == "-":
        raise ParseError(f"negative values are rejected: {_echo(text)}")
    if den == 0:
        raise ParseError(f"zero denominator: {_echo(text)}")
    if den < 0:
        raise ParseError(f"negative denominator: {_echo(text)}")
    g = gcd(num, den)
    return num // g, den // g


def _canonical_form(nums, dens, inf, nonzero, reduced=False):
    """``ExtVec``'s form: (numerators over d, d, infinity mask, nonzero mask),
    d the lcm of the reduced finite denominators (1 when there are none).

    The arguments are numerators over their own denominators, with 0 over 1
    at infinite coordinates, whose bits are set in both masks.  The
    numerators are put over the lcm of the denominators, then it and every
    numerator are divided by their gcd: no gcd per entry.  Equal vectors
    get equal forms.

    With ``reduced`` the caller promises every ratio ``n_j / q_j`` is in
    lowest terms, and the gcd is skipped, since it is then 1: a prime ``p``
    with ``p^k`` exactly dividing ``d = lcm(q_i)`` divides some ``q_j``
    exactly ``k`` times, so ``p`` divides neither ``n_j`` (the ratio is
    reduced) nor ``d / q_j``, hence not the new numerator ``n_j * d / q_j``,
    and no prime divides ``d`` and every new numerator.
    """
    d = lcm(*dens)
    if d != 1:
        nums = [n * (d // q) for n, q in zip(nums, dens)]
        if not reduced:
            g = gcd(d, *nums)
            if g != 1:
                d //= g
                nums = [n // g for n in nums]
    return (tuple(nums), d, inf, nonzero)


def _fold(terms, den, width):
    """``sum (v / (den * s)) * row`` over the ``(v, s, row)`` in ``terms``, rows
    of ``width`` ints, as ``(combined, denominator)`` over the positive
    ``den * lcm`` of the ``s``."""
    big = lcm(*(s for _, s, _ in terms))
    combined = [0] * width
    for v, s, row in terms:
        if v:
            w = v * (big // s)
            combined = [a + w * b for a, b in zip(combined, row)]
    return combined, den * big


def _lone_unit(weights, vecs, dim):
    """The vector whose weight is one when every other weight is zero, each
    an ``int``, a ``Fraction`` or an ``ExtReal`` (never a ``bool``), else None.

    The pairs are read in ``_weighted_sum``'s order, and a vector of another
    dimension raises as there, once its weight and every earlier one passed.
    """
    lone = None
    for w, v in zip(weights, vecs):
        t = type(w)
        if t is not int and t is not Fraction and t is not ExtReal:
            return None
        if w:
            if lone is not None or w != 1:
                return None
            lone = v
        if len(v._form[0]) != dim:
            raise DimensionMismatch(f"{dim} versus {len(v._form[0])}")
    return lone


def _weighted_sum(weights, vecs, dim):
    """``sum_k weights_k vecs_k`` for nonnegative extended weights, from the
    forms of vectors of dimension ``dim``.  A lone weight of one among zeros,
    the vertex certificate the screens give, returns its vector as it is.
    Otherwise a coordinate is infinite where a positive weight meets an
    infinite entry, or an infinite weight a nonzero one; the rest is one
    ``_fold``, each weight's denominator in its vector's."""
    lone = _lone_unit(weights, vecs, dim)
    if lone is not None:
        return lone
    terms = []
    inf = nonzero = 0
    for w, v in zip(weights, vecs):
        if type(w) is not ExtReal:
            w = ExtReal(w)
        nums, d, v_inf, v_nonzero = v._form
        if len(nums) != dim:
            raise DimensionMismatch(f"{dim} versus {len(nums)}")
        if w.num:
            # every term is nonnegative, so no sum cancels to zero
            nonzero |= v_nonzero
            inf |= v_inf if w.den else v_nonzero
            if w.den:
                terms.append((w.num, d * w.den, nums))
    nums, den = _fold(terms, 1, dim)
    if inf:
        nums = [0 if inf >> i & 1 else n for i, n in enumerate(nums)]
    return ExtVec._from_ratios(nums, (den,) * dim, inf, nonzero)


class ExtVec:
    """A point of the extended nonnegative orthant with a fixed dimension.

    Its one state is the canonical form that ``_canonical_form`` computes at
    construction, or on first read for ``_PendingVec``, so ``==``, ``hash``
    and ``dot`` read only the form.  The ``ExtReal`` entries are a cache:
    kept when given, else built from the form on first access.  Immutable by
    convention.
    """

    __slots__ = ("_entries", "_form")

    def __init__(self, entries):
        entries = tuple(entries)
        for e in entries:
            if type(e) is not ExtReal:
                # coerce everything once some entry is not an ExtReal yet
                entries = tuple(e if type(e) is ExtReal else ExtReal(e) for e in entries)
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
        # ExtReal entries are in lowest terms
        self._form = _canonical_form(nums, dens, inf, nonzero, reduced=True)

    @classmethod
    def _from_ratios(cls, nums, dens, inf, nonzero, reduced=False):
        """A vector straight from ``_canonical_form``'s arguments."""
        v = object.__new__(cls)
        v._entries = None
        v._form = _canonical_form(nums, dens, inf, nonzero, reduced)
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
        return _weighted_sum((r,), (self,), len(self._form[0]))

    def __add__(self, other):
        if not isinstance(other, ExtVec):
            return NotImplemented
        return _weighted_sum((ONE, ONE), (self, other), len(self._form[0]))

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


class _PendingVec(ExtVec):
    """An ``ExtVec`` that builds its form on first read: the JSON decoder's
    open-set block vectors, most of which ``minkowski`` never pairs.

    Until then ``_entries`` holds ``_canonical_form``'s arguments, which
    give the dimension.  The first read of ``_form`` finds the slot empty,
    builds the form, empties ``_entries`` and turns the vector into a plain
    ``ExtVec``, so an eagerly built vector pays no check for this class.
    """

    __slots__ = ()

    @classmethod
    def _from_ratios(cls, nums, dens, inf, nonzero, reduced=False):
        v = object.__new__(cls)
        v._entries = (nums, dens, inf, nonzero, reduced)
        return v

    def __getattr__(self, name):
        if name != "_form":
            raise AttributeError(name)
        form = self._form = _canonical_form(*self._entries)
        self._entries = None
        self.__class__ = ExtVec
        return form

    @property
    def dim(self) -> int:
        return len(self._entries[0])

    def __len__(self):
        return len(self._entries[0])

    # the rest read ExtVec's entries cache, which holds the ratios until the form is built

    @property
    def entries(self) -> tuple:
        self._form  # now a plain ExtVec
        return self.entries

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


def _over(nums, d, at=None, dim=None) -> ExtVec:
    """The finite vector ``nums / d``, nonnegative ints over one positive ``d``,
    as the LP and the screens give their certificates; with ``at``, the
    ``dim``-vector that is ``nums[p]`` at coordinate ``at[p]`` and 0 elsewhere."""
    if at is not None:
        full = [0] * dim
        for i, n in zip(at, nums):
            full[i] = n
        nums = full
    nonzero = sum(1 << i for i, n in enumerate(nums) if n)
    return ExtVec._from_ratios(nums, (d,) * len(nums), 0, nonzero)


def _reduced(num, den) -> ExtReal:
    """``num / den`` in lowest terms, ``INF`` when ``den`` is 0."""
    if not den:
        return INF
    g = gcd(num, den)
    return ExtReal._raw(num // g, den // g)


def as_extvec(x) -> ExtVec:
    return x if isinstance(x, ExtVec) else ExtVec(x)
