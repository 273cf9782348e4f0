"""Simple valuations on finite spaces, their open-set tables, and recovery
of the representing function of a linear functional on the valuation cone.

Over a finite space every valuation of interest is a weight vector: it acts
on a monotone function f as the weighted sum of f's values.  A linear
functional on the valuation cone is itself a coefficient vector; it comes
from evaluation at a monotone function exactly when those coefficients are
monotone, and the recovery operation surfaces the violating pair otherwise.
The sum is termwise with nonnegative weights (0 * inf = 0), so the Dirac
valuations decide whether mu(f) <= phi(mu) for every simple valuation mu:
the domination and sup-representation checks are exact, and a greatest
element certifies that the dominated grid functions are directed.
"""

from __future__ import annotations

import random
from itertools import product

from .errors import (
    DimensionMismatch,
    EmptyList,
    GridTooLarge,
    NotAValuation,
    PosetMismatch,
    UndefinedDifference,
)
from .extreal import INF, ONE, ZERO, ExtReal, ExtVec, as_extreal, as_extvec
from .finspace import FinitePoset, LscFun, all_opens, is_lsc

_GRID_CAP = 200_000


class SimpleValuation:
    """Pointwise weights r_x, acting on functions by weighted summation."""

    __slots__ = ("poset", "_vec")

    def __init__(self, poset: FinitePoset, weights):
        if type(weights) is not ExtVec:
            weights = tuple(weights)
        if len(weights) != poset.n:
            raise DimensionMismatch(f"expected {poset.n} weights, got {len(weights)}")
        self.poset = poset
        self._vec = as_extvec(weights)

    @property
    def weights(self) -> tuple:
        return self._vec.entries

    @classmethod
    def dirac(cls, poset: FinitePoset, x: int):
        return cls(poset, tuple(ONE if i == x else ZERO for i in range(poset.n)))

    def __eq__(self, other):
        if not isinstance(other, SimpleValuation):
            return NotImplemented
        return self.poset == other.poset and self._vec == other._vec

    def __hash__(self):
        return hash((self.poset, self._vec))

    def __repr__(self):
        return "SimpleValuation(" + ", ".join(str(w) for w in self.weights) + ")"


def eval_valuation(mu: SimpleValuation, f: LscFun) -> ExtReal:
    """mu(f) = sum_x r_x f(x) with extended arithmetic."""
    if mu.poset != f.poset:
        raise PosetMismatch("valuation and function live over different posets")
    return mu._vec.dot(f._vec)


def weakstar_member(mu: SimpleValuation, f: LscFun) -> bool:
    """Membership in the subbasic open {mu | mu(f) > 1}."""
    return ONE < eval_valuation(mu, f)


class ValuationOnOpens:
    """A valuation recorded by its values on every open set."""

    __slots__ = ("poset", "table")

    def __init__(self, poset: FinitePoset, table):
        opens = all_opens(poset)
        tab = {int(mask): as_extreal(v) for mask, v in dict(table).items()}
        if set(tab) != set(opens):
            raise ValueError("table must cover exactly the open sets of the poset")
        self.poset = poset
        self.table = tab

    @classmethod
    def _of_opens(cls, poset: FinitePoset, table: dict):
        """A table whose keys are the opens of ``poset`` and whose values are
        ``ExtReal``s by construction, so nothing is enumerated or checked."""
        nu = cls.__new__(cls)
        nu.poset = poset
        nu.table = table
        return nu

    def value(self, mask: int) -> ExtReal:
        return self.table[mask]

    def items(self):
        return sorted(self.table.items())

    def __eq__(self, other):
        if not isinstance(other, ValuationOnOpens):
            return NotImplemented
        return self.poset == other.poset and self.table == other.table

    def __repr__(self):
        return f"ValuationOnOpens({len(self.table)} opens)"


def to_opens(mu: SimpleValuation) -> ValuationOnOpens:
    """Tabulate nu(U) = mu(1_U), the pairing with U's indicator, over all
    opens."""
    n = mu.poset.n
    ones = [1] * n
    table = {}
    for mask in all_opens(mu.poset):
        indicator = ExtVec._from_ratios([mask >> i & 1 for i in range(n)], ones, 0, mask)
        table[mask] = mu._vec.dot(indicator)
    return ValuationOnOpens._of_opens(mu.poset, table)


def from_opens(nu: ValuationOnOpens) -> SimpleValuation:
    """Invert an open-set table back to pointwise weights.

    The weight at x is nu(up-set of x) minus nu(same up-set without x).
    Raises UndefinedDifference when that difference is infinity minus
    infinity, and NotAValuation when it would be negative or when the
    reconstructed weights fail to reproduce the table.
    """
    poset = nu.poset
    weights = []
    for x in range(poset.n):
        up = poset.up_mask(x)
        above = up & ~(1 << x)
        a = nu.value(up)
        b = nu.value(above)
        if b.is_infinite:
            if a.is_infinite:
                raise UndefinedDifference(
                    f"weight of element {x} is an infinity minus infinity"
                )
            raise NotAValuation(f"element {x} would need a negative weight")
        if a < b:
            raise NotAValuation(f"element {x} would need a negative weight")
        weights.append(a - b)
    mu = SimpleValuation(poset, weights)
    if to_opens(mu) != nu:
        raise NotAValuation("table is not induced by pointwise weights")
    return mu


class DualFunctional:
    """Linear functional on valuations: mu with weights r maps to sum r_x c_x."""

    __slots__ = ("_vec",)

    def __init__(self, coeffs):
        if type(coeffs) is not ExtVec:
            coeffs = tuple(coeffs)
            if not coeffs:
                raise EmptyList("at least one coefficient is required")
            coeffs = ExtVec(coeffs)
        self._vec = coeffs

    @property
    def coeffs(self) -> tuple:
        return self._vec.entries

    def eval(self, mu: SimpleValuation) -> ExtReal:
        if len(self._vec) != mu.poset.n:
            raise DimensionMismatch(
                f"{len(self._vec)} coefficients versus {mu.poset.n} elements"
            )
        return mu._vec.dot(self._vec)

    def __eq__(self, other):
        if not isinstance(other, DualFunctional):
            return NotImplemented
        return self._vec == other._vec

    def __hash__(self):
        return hash(self._vec)

    def __repr__(self):
        return "DualFunctional(" + ", ".join(str(c) for c in self.coeffs) + ")"


def recover_function(phi: DualFunctional, poset: FinitePoset) -> LscFun:
    """Recover f with phi(mu) = mu(f) for every simple valuation.

    Evaluating phi at the Dirac valuations forces f(x) to be phi's
    coefficient at x, so the only candidate is the coefficient vector
    itself.  If it is monotone the identity holds by construction; if not,
    phi cannot be lower semicontinuous for the weak* upper topology and the
    violating pair is reported.
    """
    return LscFun(poset, _dirac_values(phi, poset))


def random_simple_valuation(rng: random.Random, poset: FinitePoset, inf_chance: int = 10) -> SimpleValuation:
    """Seeded draw with weights from zero, small rationals, and infinity."""
    weights = []
    for _ in range(poset.n):
        if rng.randrange(inf_chance) == 0:
            weights.append(INF)
        else:
            weights.append(ExtReal(rng.randrange(0, 9), rng.randrange(1, 5)))
    return SimpleValuation(poset, weights)


def _grid_values(grid_denominator: int, cap: ExtReal, n: int):
    """The grid 0, 1/d, .., cap, ascending; its size is bounded before any
    value is built."""
    if grid_denominator < 1:
        raise ValueError("grid denominator must be positive")
    if cap.is_infinite:
        raise GridTooLarge("an infinite cap would need an infinite grid")
    count = cap.num * grid_denominator // cap.den + 1
    if count ** n > _GRID_CAP:
        raise GridTooLarge(f"{count}^{n} candidate tables exceed the bound")
    return [ExtReal(k, grid_denominator) for k in range(count)]


def _dirac_values(phi: DualFunctional, poset: FinitePoset) -> ExtVec:
    """phi at each Dirac valuation: the bound c with mu(f) <= phi(mu) for
    every simple valuation mu exactly when f <= c pointwise.  The pairing of
    delta_x with phi's coefficients is the coefficient at x, inf included,
    so c is phi's coefficient vector itself."""
    if len(phi._vec) != poset.n:
        raise DimensionMismatch(f"{len(phi._vec)} coefficients versus {poset.n} elements")
    return phi._vec


def check_dominated_directed(phi: DualFunctional, poset: FinitePoset, grid_denominator: int, cap):
    """Directedness of the grid functions dominated by phi.

    The candidates are the monotone functions with values in
    {0, 1/d, .., cap}.  Since mu(f) = sum_x r_x f(x) is a termwise sum with
    nonnegative weights (0 * inf = 0), f stays below phi on every simple
    valuation iff it does on the Dirac valuations, that is iff f <= c
    pointwise with c_x = phi(delta_x); so the survivors are the monotone
    tuples drawn from each coordinate's grid values up to c_x.  A finite
    set is directed iff it has a greatest element: the running pointwise
    maximum must stay a survivor.  Returns (True, None), or (False, pair)
    with two survivors whose least upper bound is not one.

    On valid input the answer is always (True, None): the pointwise maximum
    of two monotone grid functions below c is again one, so the survivors
    are closed under it.  The running maximum is kept as the
    implementation's self-check of that fact, not as a decision.
    """
    values = _grid_values(grid_denominator, as_extreal(cap), poset.n)
    c = _dirac_values(phi, poset)
    survivors = [
        f
        for f in product(*[[v for v in values if v <= cx] for cx in c])
        if is_lsc(f, poset)[0]
    ]
    members = set(survivors)
    top = survivors[0]
    for f in survivors[1:]:
        lub = tuple(a if b <= a else b for a, b in zip(top, f))
        if lub not in members:
            return False, (top, f)
        top = lub
    return True, None


def check_sup_representation(phi: DualFunctional, poset: FinitePoset, family) -> bool:
    """Check phi is the supremum of the evaluations at the family.

    The family is read as generating its directed closure under finite
    pointwise sups.  By the Dirac valuations, phi is that supremum on every
    simple valuation iff the pointwise supremum of the family equals
    c_x = phi(delta_x); every member then lies below c as well.
    """
    funs = list(family)
    if not funs:
        raise EmptyList("the family must be nonempty")
    for f in funs:
        if f.poset != poset:
            raise PosetMismatch("family member lives over a different poset")
    top = LscFun.sup(funs)
    return top._vec == _dirac_values(phi, poset)
