"""Seeded property suites behind the ``check`` command and the acceptance
tests.

Every suite is deterministic given its seed and returns a plain dict
report; rerunning with the same seed reproduces the report byte for byte
once serialised with sorted keys.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from . import oracles
from .certify import verify_meets_corner, verify_separated
from .convex_sep import MeetsCorner, Separated, separate
from .extreal import (
    INF,
    ONE,
    ZERO,
    ExtReal,
    ExtVec,
    _weighted_sum,
    ext_max,
    ext_min,
    parse_extreal,
)
from .errors import NotLSC
from .finspace import is_lsc, posets_up_to_iso
from .functionals import (
    LinFun,
    OpenSetRep,
    SublinFun,
    SuperlinFun,
    leq_functional,
    member_a,
    member_u,
    minkowski,
    specialization_leq,
)
from .interpolate import interpolate
from .valuations import (
    DualFunctional,
    SimpleValuation,
    check_dominated_directed,
    eval_valuation,
    from_opens,
    random_simple_valuation,
    recover_function,
    to_opens,
)

DEFAULT_SEED = 1729
_FAILURE_LIMIT = 25


class _Tally:
    """A suite's count of checks and the labels of the ones that failed."""

    __slots__ = ("checks", "failures")

    def __init__(self):
        self.checks = 0
        self.failures = []

    def expect(self, ok, label, *args):
        """Count one check; when it fails, keep ``label.format(*args)``.
        Returns ``ok``, so a caller can skip the rest of a case."""
        self.checks += 1
        if not ok:
            self.failures.append(label.format(*args))
        return ok

    def report(self, name, seed, cases):
        return {
            "suite": name,
            "seed": seed,
            "cases": cases,
            "checks": self.checks,
            "failures": self.failures[:_FAILURE_LIMIT],
            "failure_count": len(self.failures),
            "passed": not self.failures,
        }


def _rand_entry(rng, num_max, den_max, inf_chance):
    if inf_chance and rng.randrange(inf_chance) == 0:
        return INF
    return ExtReal(rng.randint(0, num_max), rng.randint(1, den_max))


def _rand_point(rng, dim, inf_chance=10):
    """The draws of ``_rand_entry(rng, 8, 4, inf_chance)`` per coordinate,
    taken straight into the vector's form."""
    nums, dens, inf = [0] * dim, [1] * dim, 0
    for i in range(dim):
        if inf_chance and rng.randrange(inf_chance) == 0:
            inf |= 1 << i
        else:
            nums[i], dens[i] = rng.randint(0, 8), rng.randint(1, 4)
    nonzero = inf | sum(1 << i for i, n in enumerate(nums) if n)
    return ExtVec._from_ratios(nums, dens, inf, nonzero)


def _rand_corner_point(rng, dim):
    entries = []
    for _ in range(dim):
        if rng.randrange(5) == 0:
            entries.append(INF)
        else:
            entries.append(ExtReal(rng.randint(17, 64), 16))
    return ExtVec(entries)


# ---------------------------------------------------------------------------
# extended reals


def suite_extreal(seed: int = DEFAULT_SEED):
    grid = [ZERO, ExtReal(1, 3), ExtReal(1, 2), ONE, ExtReal(2), ExtReal(3), INF]
    tally = _Tally()
    for a in grid:
        tally.expect(a + ZERO == a, "{} + 0", a)
        tally.expect(ONE * a == a, "1 * {}", a)
        tally.expect(ZERO * a == ZERO, "0 * {} must be 0", a)
        if not a.is_zero:
            tally.expect(a * INF == INF, "{} * inf must be inf", a)
        tally.expect(a + INF == INF and INF + a == INF, "{} + inf", a)
        tally.expect(parse_extreal(str(a)) == a, "parse round trip {}", a)
        for b in grid:
            tally.expect(a + b == b + a, "{} + {} commutes", a, b)
            tally.expect(a * b == b * a, "{} * {} commutes", a, b)
            if b.is_finite:
                tally.expect(a + b - b == a, "({0} + {1}) - {1}", a, b)
            for c in grid:
                tally.expect((a + b) + c == a + (b + c), "assoc + {},{},{}", a, b, c)
                tally.expect((a * b) * c == a * (b * c), "assoc * {},{},{}", a, b, c)
                tally.expect(a * (b + c) == a * b + a * c, "distrib {},{},{}", a, b, c)
                tally.expect((a + b) * c == a * c + b * c, "distrib right {},{},{}", a, b, c)
                if a <= b:
                    tally.expect(a + c <= b + c, "monotone + {},{},{}", a, b, c)
                    tally.expect(a * c <= b * c, "monotone * {},{},{}", a, b, c)
    return tally.report("extreal", seed, len(grid))


# ---------------------------------------------------------------------------
# separation


def suite_separation(seed: int = DEFAULT_SEED):
    instances = 500
    rng = random.Random(seed)
    tally = _Tally()
    for t in range(instances):
        dim = rng.randint(1, 6)
        count = rng.randint(1, 8)
        gens = [
            ExtVec([_rand_entry(rng, 32, 16, 10) for _ in range(dim)])
            for _ in range(count)
        ]
        outcome = separate(gens, dim)
        if isinstance(outcome, Separated):
            tally.expect(verify_separated(gens, outcome.weights, dim),
                         "instance {}: separated weights failed recheck", t)
            w = outcome.weights
            for _ in range(2):
                y = _rand_corner_point(rng, dim)
                tally.expect(ONE < w.dot(y), "instance {}: corner point {} not above one", t, y)
        else:
            tally.expect(verify_meets_corner(gens, outcome.witness),
                         "instance {}: corner witness failed recheck", t)
        # the exact oracle enumerates the vertices of an arrangement: keep it to dim 3
        if dim <= 3:
            meets = oracles.hull_meets_corner(gens, dim)
            tally.expect(meets == isinstance(outcome, MeetsCorner),
                         "instance {}: matrix-game oracle disagrees", t)
    return tally.report("separation", seed, instances)


# ---------------------------------------------------------------------------
# interpolation


def _rand_simplex_weights(rng, n):
    raw = [rng.randint(0, 8) for _ in range(n)]
    if not any(raw):
        raw[0] = 1
    total = sum(raw)
    return [Fraction(v, total) for v in raw]


def _hypothesis_instance(rng):
    dim = rng.randint(1, 5)
    n = rng.randint(1, 4)
    k = rng.randint(1, 4)
    gs = [
        LinFun([_rand_entry(rng, 6, 4, 0) for _ in range(dim)]) for _ in range(n)
    ]
    if rng.randrange(2) == 0:
        w = _rand_simplex_weights(rng, n)
        base = _weighted_sum(w, [g.coeffs for g in gs], dim)
    else:
        base = gs[rng.randrange(n)].coeffs
    bump = ExtVec([Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(dim)])
    hs = [LinFun(base + bump)]
    for _ in range(k - 1):
        hs.append(LinFun([_rand_entry(rng, 6, 4, 0) for _ in range(dim)]))
    return gs, SublinFun(hs)


def _violating_instance(rng):
    dim = rng.randint(1, 5)
    n = rng.randint(1, 4)
    k = rng.randint(1, 4)
    gs = [
        LinFun([ExtReal(rng.randint(8, 16), rng.randint(1, 4)) for _ in range(dim)])
        for _ in range(n)
    ]
    hs = []
    for _ in range(k):
        den = rng.randint(1, 8)
        hs.append(LinFun([ExtReal(rng.randint(0, den), den) for _ in range(dim)]))
    return gs, SublinFun(hs)


def suite_interpolation(seed: int = DEFAULT_SEED):
    instances, violations, points = 300, 100, 1000
    rng = random.Random(seed)
    tally = _Tally()
    for t in range(instances):
        gs, phi = _hypothesis_instance(rng)
        dim = phi.dim
        ok, _ = leq_functional(SuperlinFun(gs), phi)
        if not tally.expect(ok, "instance {}: constructed hypothesis rejected", t):
            continue
        result = interpolate(gs, phi)
        gcoeffs = [[e.as_fraction() for e in g.coeffs] for g in gs]
        hcoeffs = [[e.as_fraction() for e in h.coeffs] for h in phi.branches]
        mix = [sum(a * gc[j] for a, gc in zip(result.weights, gcoeffs)) for j in range(dim)]
        cover = [
            sum(lk * hc[j] for lk, hc in zip(result.certificate, hcoeffs)) for j in range(dim)
        ]
        if not tally.expect(all(left <= right for left, right in zip(mix, cover)),
                            "instance {}: certificate fails coordinatewise", t):
            continue
        mid = LinFun(mix)
        low = SuperlinFun(gs)
        for _ in range(points):
            y = _rand_point(rng, dim)
            lo = low.eval(y)
            md = mid.eval(y)
            hi = phi.eval(y)
            if not tally.expect(lo <= md and md <= hi, "instance {}: sandwich fails at {}", t, y):
                break
    for t in range(violations):
        gs, phi = _violating_instance(rng)
        ok, witness = leq_functional(SuperlinFun(gs), phi)
        if ok or witness is None:
            tally.expect(False, "violation {}: hypothesis unexpectedly accepted", t)
        else:
            tally.expect(phi.eval(witness) < SuperlinFun(gs).eval(witness),
                         "violation {}: witness not verified at {}", t, witness)
    return tally.report("interpolation", seed, instances + violations)


# ---------------------------------------------------------------------------
# minkowski and the open-set correspondences


def suite_minkowski(seed: int = DEFAULT_SEED):
    families = 200
    rng = random.Random(seed)
    tally = _Tally()
    for t in range(families):
        dim = rng.randint(1, 4)
        nblocks = rng.randint(1, 3)
        blocks = []
        for _ in range(nblocks):
            size = rng.randint(1, 3)
            blocks.append(
                [LinFun([_rand_entry(rng, 6, 3, 15) for _ in range(dim)]) for _ in range(size)]
            )
        rep = OpenSetRep(blocks)
        flat = SublinFun([f for block in blocks for f in block])
        first_min = SuperlinFun(blocks[0])
        heads = SublinFun([block[0] for block in blocks])

        samples = [ExtVec([ZERO] * dim), ExtVec([ONE] * dim)]
        for j in range(dim):
            samples.append(ExtVec([ONE if i == j else ZERO for i in range(dim)]))
        while len(samples) < 16:
            samples.append(_rand_point(rng, dim, inf_chance=8))

        zero = samples[0]
        tally.expect(member_a(flat, zero) and not member_u(flat, zero),
                     "family {}: zero escapes the closed side", t)

        for y in samples:
            for block in blocks:
                single = OpenSetRep([block])
                tally.expect(minkowski(single, y) == ext_min(f.eval(y) for f in block),
                             "family {}: block closed form differs at {}", t, y)
                want = all(member_u(f, y) for f in block)
                tally.expect(member_u(SuperlinFun(block), y) == want,
                             "family {}: intersection law fails at {}", t, y)
            tally.expect(member_u(heads, y) == any(member_u(h, y) for h in heads.branches),
                         "family {}: union law fails at {}", t, y)
            alt = ext_max(ext_min(f.eval(y) for f in block) for block in blocks)
            tally.expect(minkowski(rep, y) == alt,
                         "family {}: union of blocks closed form at {}", t, y)
            for r in (ExtReal(1, 2), ExtReal(2), ExtReal(7, 3)):
                tally.expect(flat.eval(y.scale(r)) == r * flat.eval(y),
                             "family {}: max rep not homogeneous at {}", t, y)
                tally.expect(first_min.eval(y.scale(r)) == r * first_min.eval(y),
                             "family {}: min rep not homogeneous at {}", t, y)
            tally.expect(flat.eval(y.scale(ZERO)) == ZERO, "family {}: scaling by zero at {}", t, y)

        for y in samples[:4]:
            value = minkowski(rep, y)
            probes = [ExtReal(1, 2), ONE, ExtReal(2)]
            if value.is_finite and not value.is_zero:
                v = value.as_fraction()
                probes += [ExtReal(v / 2), value, ExtReal(2 * v)]
            tally.expect(oracles.minkowski_by_scaling_scan(rep, y, value, probes),
                         "family {}: scaling scan disagrees at {}", t, y)

        inside_a = [y for y in samples if member_a(flat, y)]
        ts = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        for a in inside_a[:4]:
            for b in inside_a[:4]:
                for tt in ts:
                    combo = a.scale(tt) + b.scale(1 - tt)
                    tally.expect(member_a(flat, combo), "family {}: closed side not convex", t)
        inside_u = [y for y in samples if member_u(first_min, y)]
        for a in inside_u[:4]:
            for b in inside_u[:4]:
                for tt in ts:
                    combo = a.scale(tt) + b.scale(1 - tt)
                    tally.expect(member_u(first_min, combo), "family {}: open side not convex", t)
    return tally.report("minkowski", seed, families)


# ---------------------------------------------------------------------------
# recovery over finite spaces


def _monotonize(poset, raw):
    out = []
    for x in range(poset.n):
        below = [raw[z] for z in range(poset.n) if poset.leq(z, x)]
        out.append(ext_max(below + [raw[x]]))
    return out


def _rand_coeffs(rng, poset):
    raw = [_rand_entry(rng, 6, 4, 12) for _ in range(poset.n)]
    if rng.randrange(2) == 0:
        return _monotonize(poset, raw)
    return raw


def suite_schroeder_simpson(seed: int = DEFAULT_SEED):
    """Recovery on every poset of up to 5 elements, and the Möbius round
    trips on those of up to 4."""
    vectors, valuations = 50, 200
    rng = random.Random(seed)
    tally = _Tally()
    cases = 0
    for n in range(1, 6):
        for p_idx, poset in enumerate(posets_up_to_iso(n)):
            mus = [random_simple_valuation(rng, poset) for _ in range(valuations)]
            for v in range(vectors):
                cases += 1
                coeffs = _rand_coeffs(rng, poset)
                phi = DualFunctional(coeffs)
                ok, pair = is_lsc(coeffs, poset)
                if ok:
                    f = recover_function(phi, poset)
                    if not tally.expect(f.values == tuple(coeffs),
                                        "poset {}/{} vector {}: wrong recovery", n, p_idx, v):
                        continue
                    for mu in mus:
                        if not tally.expect(eval_valuation(mu, f) == phi.eval(mu),
                                            "poset {}/{} vector {}: evaluation mismatch",
                                            n, p_idx, v):
                            break
                else:
                    try:
                        recover_function(phi, poset)
                    except NotLSC as exc:
                        x, y = exc.witness
                        tally.expect(poset.leq(x, y) and not coeffs[x] <= coeffs[y],
                                     "poset {}/{} vector {}: invalid witness pair", n, p_idx, v)
                    else:
                        tally.expect(False, "poset {}/{} vector {}: non-monotone accepted",
                                     n, p_idx, v)
    for n in range(1, 5):
        for p_idx, poset in enumerate(posets_up_to_iso(n)):
            for weights in product((0, 1, 2, 3), repeat=n):
                cases += 1
                mu = SimpleValuation(poset, weights)
                nu = to_opens(mu)
                tally.expect(from_opens(nu) == mu,
                             "mobius {}/{} {}: weight round trip", n, p_idx, weights)
                tally.expect(to_opens(from_opens(nu)) == nu,
                             "mobius {}/{} {}: table round trip", n, p_idx, weights)
    return tally.report("schroeder-simpson", seed, cases)


# ---------------------------------------------------------------------------
# the projection regression


def suite_regression(seed: int = DEFAULT_SEED):
    tally = _Tally()
    c_gens = [LinFun([ONE, ZERO]), LinFun([ONE, ONE])]
    y = ExtVec([ONE, ONE])
    y_prime = ExtVec([ExtReal(2), ZERO])
    tally.expect(specialization_leq(y, y_prime, c_gens),
                 "(1,1) should precede (2,0) in the induced order")
    proj = LinFun([ZERO, ONE])
    tally.expect(proj.eval(y) == ONE and proj.eval(y_prime) == ZERO,
                 "second projection values changed")
    tally.expect(not proj.eval(y) <= proj.eval(y_prime), "second projection unexpectedly monotone")
    return tally.report("regression", seed, 1)


# ---------------------------------------------------------------------------
# directedness of the dominated set, at desk scale.  Every case passes by
# construction: the monotone grid functions below c are closed under
# pointwise maximum, so check_dominated_directed returns (True, None) on
# valid input; the suite runs its running-maximum self-check on every poset.


def suite_directedness(seed: int = DEFAULT_SEED):
    """Every poset of up to 4 elements."""
    rng = random.Random(seed)
    tally = _Tally()
    cases = 0
    for n in range(1, 5):
        for p_idx, poset in enumerate(posets_up_to_iso(n)):
            for v in range(3):
                cases += 1
                coeffs = _rand_coeffs(rng, poset)
                phi = DualFunctional(coeffs)
                ok, pair = check_dominated_directed(phi, poset, 2, ExtReal(2))
                tally.expect(ok, "poset {}/{} functional {}: pair without upper bound {}",
                             n, p_idx, v, pair)
    return tally.report("directedness", seed, cases)


SUITES = {
    "extreal": suite_extreal,
    "separation": suite_separation,
    "interpolation": suite_interpolation,
    "minkowski": suite_minkowski,
    "schroeder-simpson": suite_schroeder_simpson,
    "regression": suite_regression,
    "directedness": suite_directedness,
}
