"""Simple valuations on finite spaces, their open-set tables, and recovery
of the representing function of a linear functional on the valuation cone.

Over a finite space every valuation of interest is a weight vector: it acts
on a monotone function f as the weighted sum of f's values.  A linear
functional on the valuation cone is itself a coefficient vector; it comes
from evaluation at a monotone function exactly when those coefficients are
monotone, and the recovery operation surfaces the violating pair otherwise.
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
from .extreal import INF, ONE, ZERO, ExtReal, ExtVec, as_extreal
from .finspace import FinitePoset, LscFun, all_opens, is_lsc

_GRID_CAP = 200_000


class SimpleValuation:
    """Pointwise weights r_x, acting on functions by weighted summation."""

    __slots__ = ("poset", "_vec")

    def __init__(self, poset: FinitePoset, weights):
        ws = tuple(weights)
        if len(ws) != poset.n:
            raise DimensionMismatch(f"expected {poset.n} weights, got {len(ws)}")
        self.poset = poset
        self._vec = ExtVec(ws)

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
        return hash((self.poset, self.weights))

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
    """Tabulate nu(U) = sum of weights inside U over all opens."""
    n = mu.poset.n
    weights = mu.weights
    table = {}
    for mask in all_opens(mu.poset):
        total = ZERO
        for i in range(n):
            if mask >> i & 1:
                total = total + weights[i]
        table[mask] = total
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
        cs = tuple(coeffs)
        if not cs:
            raise EmptyList("at least one coefficient is required")
        self._vec = ExtVec(cs)

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
    if len(phi.coeffs) != poset.n:
        raise DimensionMismatch(
            f"{len(phi.coeffs)} coefficients versus {poset.n} elements"
        )
    return LscFun(poset, phi._vec)


def random_simple_valuation(rng: random.Random, poset: FinitePoset, inf_chance: int = 10) -> SimpleValuation:
    """Seeded draw with weights from zero, small rationals, and infinity."""
    weights = []
    for _ in range(poset.n):
        if rng.randrange(inf_chance) == 0:
            weights.append(INF)
        else:
            weights.append(ExtReal(rng.randrange(0, 9), rng.randrange(1, 5)))
    return SimpleValuation(poset, weights)


def _grid_values(grid_denominator: int, cap: ExtReal):
    if grid_denominator < 1:
        raise ValueError("grid denominator must be positive")
    if cap.is_infinite:
        raise GridTooLarge("an infinite cap would need an infinite grid")
    values = []
    k = 0
    while True:
        v = ExtReal(k, grid_denominator)
        if not v <= cap:
            break
        values.append(v)
        k += 1
    return values


def check_dominated_directed(
    phi: DualFunctional,
    poset: FinitePoset,
    grid_denominator: int,
    cap,
    seed: int = 1729,
    random_valuations: int = 200,
):
    """Desk-scale directedness of the functions dominated by phi.

    Builds the grid of monotone functions with values in {0, 1/d, .., cap},
    keeps those f with mu(f) <= phi(mu) for the Dirac valuations and a
    seeded batch of random ones, and checks every pair in the survivor set
    has an upper bound inside it.  The pointwise maximum is the least upper
    bound, so membership of the maximum decides each pair.
    """
    cap = as_extreal(cap)
    values = _grid_values(grid_denominator, cap)
    n = poset.n
    if len(values) ** n > _GRID_CAP:
        raise GridTooLarge(f"{len(values)}^{n} candidate tables exceed the bound")
    candidates = [
        vals for vals in product(values, repeat=n) if is_lsc(vals, poset)[0]
    ]
    rng = random.Random(seed)
    mus = [SimpleValuation.dirac(poset, x) for x in range(n)]
    mus += [random_simple_valuation(rng, poset) for _ in range(random_valuations)]
    bounds = [(mu._vec, phi.eval(mu)) for mu in mus]
    survivors = []
    for f in candidates:
        vec = ExtVec(f)
        if all(w.dot(vec) <= b for w, b in bounds):
            survivors.append(f)
    sset = set(survivors)
    for i in range(len(survivors)):
        fi = survivors[i]
        for j in range(i + 1, len(survivors)):
            fj = survivors[j]
            lub = tuple(a if b <= a else b for a, b in zip(fi, fj))
            if lub not in sset:
                return False, (fi, fj)
    return True, None


def check_sup_representation(
    phi: DualFunctional,
    poset: FinitePoset,
    family,
    seed: int = 1729,
    samples: int = 200,
) -> bool:
    """Check phi is represented as the supremum of evaluations at the family.

    The family is read as generating its directed closure under finite
    pointwise sups, so equality is tested against the pointwise supremum of
    the whole family; each member must stay below phi on every sampled
    valuation.  Samples are the Dirac valuations plus a seeded random batch.
    """
    funs = list(family)
    if not funs:
        raise EmptyList("the family must be nonempty")
    for f in funs:
        if f.poset != poset:
            raise PosetMismatch("family member lives over a different poset")
    top = LscFun.sup(funs)
    rng = random.Random(seed)
    mus = [SimpleValuation.dirac(poset, x) for x in range(poset.n)]
    mus += [random_simple_valuation(rng, poset) for _ in range(samples)]
    for mu in mus:
        bound = phi.eval(mu)
        if any(not eval_valuation(mu, f) <= bound for f in funs):
            return False
        if eval_valuation(mu, top) != bound:
            return False
    return True
