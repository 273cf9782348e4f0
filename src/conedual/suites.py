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
from .convex_sep import (
    MeetsCorner,
    Separated,
    separate,
    verify_meets_corner,
    verify_separated,
)
from .extreal import (
    INF,
    ONE,
    ZERO,
    ExtReal,
    ExtVec,
    ext_max,
    parse_extreal,
    sub_partial,
)
from .errors import NotLSC
from .finspace import is_lsc, posets_up_to_iso
from .functionals import (
    LinFun,
    OpenSetRep,
    SublinFun,
    SuperlinFun,
    member_a,
    member_u,
    minkowski,
    specialization_leq,
)
from .interpolate import check_min_below, interpolate
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


def _report(name, seed, cases, checks, failures):
    return {
        "suite": name,
        "seed": seed,
        "cases": cases,
        "checks": checks,
        "failures": failures[:_FAILURE_LIMIT],
        "failure_count": len(failures),
        "passed": not failures,
    }


def _rand_entry(rng, num_max, den_max, inf_chance):
    if inf_chance and rng.randrange(inf_chance) == 0:
        return INF
    return ExtReal(rng.randint(0, num_max), rng.randint(1, den_max))


def _rand_point(rng, dim, inf_chance=10):
    return ExtVec([_rand_entry(rng, 8, 4, inf_chance) for _ in range(dim)])


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
    failures = []
    checks = 0

    def expect(cond, label):
        nonlocal checks
        checks += 1
        if not cond:
            failures.append(label)

    for a in grid:
        expect(a + ZERO == a, f"{a} + 0")
        expect(ONE * a == a, f"1 * {a}")
        expect(ZERO * a == ZERO, f"0 * {a} must be 0")
        if not a.is_zero:
            expect(a * INF == INF, f"{a} * inf must be inf")
        expect(a + INF == INF and INF + a == INF, f"{a} + inf")
        expect(parse_extreal(str(a)) == a, f"parse round trip {a}")
        for b in grid:
            expect(a + b == b + a, f"{a} + {b} commutes")
            expect(a * b == b * a, f"{a} * {b} commutes")
            if b.is_finite:
                expect(sub_partial(a + b, b) == a, f"({a} + {b}) - {b}")
            for c in grid:
                expect((a + b) + c == a + (b + c), f"assoc + {a},{b},{c}")
                expect((a * b) * c == a * (b * c), f"assoc * {a},{b},{c}")
                expect(a * (b + c) == a * b + a * c, f"distrib {a},{b},{c}")
                expect((a + b) * c == a * c + b * c, f"distrib right {a},{b},{c}")
                if a <= b:
                    expect(a + c <= b + c, f"monotone + {a},{b},{c}")
                    expect(a * c <= b * c, f"monotone * {a},{b},{c}")
    return _report("extreal", seed, len(grid), checks, failures)


# ---------------------------------------------------------------------------
# separation


def suite_separation(
    seed: int = DEFAULT_SEED,
    instances: int = 500,
    oracle_denominator: int = 32,
    oracle_dim_cap: int = 3,
):
    rng = random.Random(seed)
    failures = []
    checks = 0
    for t in range(instances):
        dim = rng.randint(1, 6)
        count = rng.randint(1, 8)
        gens = [
            ExtVec([_rand_entry(rng, 32, 16, 10) for _ in range(dim)])
            for _ in range(count)
        ]
        outcome = separate(gens, dim)
        checks += 1
        if isinstance(outcome, Separated):
            if not verify_separated(gens, outcome.weights, dim):
                failures.append(f"instance {t}: separated weights failed recheck")
            w = ExtVec([ExtReal.from_fraction(a) for a in outcome.weights])
            for _ in range(2):
                y = _rand_corner_point(rng, dim)
                checks += 1
                if not ONE < w.dot(y):
                    failures.append(f"instance {t}: corner point {y} not above one")
        else:
            if not verify_meets_corner(gens, outcome.witness):
                failures.append(f"instance {t}: corner witness failed recheck")
        if dim <= oracle_dim_cap:
            checks += 1
            meets = oracles.hull_meets_corner_dyadic(gens, dim, oracle_denominator)
            if meets != isinstance(outcome, MeetsCorner):
                failures.append(f"instance {t}: dyadic oracle disagrees")
    return _report("separation", seed, instances, checks, failures)


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
        base = [
            sum(wi * g.coeffs[j].as_fraction() for wi, g in zip(w, gs))
            for j in range(dim)
        ]
    else:
        g0 = gs[rng.randrange(n)]
        base = [c.as_fraction() for c in g0.coeffs]
    bump = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(dim)]
    hs = [LinFun([ExtReal.from_fraction(b + u) for b, u in zip(base, bump)])]
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


def suite_interpolation(
    seed: int = DEFAULT_SEED,
    instances: int = 300,
    violations: int = 100,
    points: int = 1000,
):
    rng = random.Random(seed)
    failures = []
    checks = 0
    for t in range(instances):
        gs, phi = _hypothesis_instance(rng)
        dim = phi.dim
        ok, _ = check_min_below(gs, phi)
        checks += 1
        if not ok:
            failures.append(f"instance {t}: constructed hypothesis rejected")
            continue
        result = interpolate(gs, phi)
        gcoeffs = [[e.as_fraction() for e in g.coeffs] for g in gs]
        hcoeffs = [[e.as_fraction() for e in h.coeffs] for h in phi.branches]
        checks += 1
        mix = [sum(a * gc[j] for a, gc in zip(result.weights, gcoeffs)) for j in range(dim)]
        cover = [
            sum(lk * hc[j] for lk, hc in zip(result.certificate, hcoeffs)) for j in range(dim)
        ]
        if any(left > right for left, right in zip(mix, cover)):
            failures.append(f"instance {t}: certificate fails coordinatewise")
            continue
        mid = LinFun(mix)
        low = SuperlinFun(gs)
        for _ in range(points):
            y = _rand_point(rng, dim)
            lo = low.eval(y)
            md = mid.eval(y)
            hi = phi.eval(y)
            checks += 1
            if not (lo <= md and md <= hi):
                failures.append(f"instance {t}: sandwich fails at {y}")
                break
    for t in range(violations):
        gs, phi = _violating_instance(rng)
        ok, witness = check_min_below(gs, phi)
        checks += 1
        if ok or witness is None:
            failures.append(f"violation {t}: hypothesis unexpectedly accepted")
            continue
        low = SuperlinFun(gs).eval(witness)
        if not phi.eval(witness) < low:
            failures.append(f"violation {t}: witness not verified at {witness}")
    return _report("interpolation", seed, instances + violations, checks, failures)


# ---------------------------------------------------------------------------
# minkowski and the open-set correspondences


def suite_minkowski(seed: int = DEFAULT_SEED, families: int = 200, points: int = 16):
    rng = random.Random(seed)
    failures = []
    checks = 0
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
        while len(samples) < points:
            samples.append(_rand_point(rng, dim, inf_chance=8))

        zero = samples[0]
        checks += 1
        if not (member_a(flat, zero) and not member_u(flat, zero)):
            failures.append(f"family {t}: zero escapes the closed side")

        for y in samples:
            for block in blocks:
                checks += 1
                single = OpenSetRep([block])
                if minkowski(single, y) != SuperlinFun(block).eval(y):
                    failures.append(f"family {t}: block closed form differs at {y}")
                checks += 1
                want = all(member_u(f, y) for f in block)
                if member_u(SuperlinFun(block), y) != want:
                    failures.append(f"family {t}: intersection law fails at {y}")
            checks += 1
            if member_u(heads, y) != any(member_u(h, y) for h in heads.branches):
                failures.append(f"family {t}: union law fails at {y}")
            checks += 1
            grows = minkowski(rep, y)
            alt = ext_max(SuperlinFun(block).eval(y) for block in blocks)
            if grows != alt:
                failures.append(f"family {t}: union of blocks closed form at {y}")
            for r in (ExtReal(1, 2), ExtReal(2), ExtReal(7, 3)):
                checks += 1
                if flat.eval(y.scale(r)) != r * flat.eval(y):
                    failures.append(f"family {t}: max rep not homogeneous at {y}")
                checks += 1
                if first_min.eval(y.scale(r)) != r * first_min.eval(y):
                    failures.append(f"family {t}: min rep not homogeneous at {y}")
            checks += 1
            if flat.eval(y.scale(ZERO)) != ZERO:
                failures.append(f"family {t}: scaling by zero at {y}")

        for y in samples[:4]:
            value = minkowski(rep, y)
            probes = [ExtReal(1, 2), ONE, ExtReal(2)]
            if value.is_finite and not value.is_zero:
                v = value.as_fraction()
                probes += [ExtReal.from_fraction(v / 2), value, ExtReal.from_fraction(2 * v)]
            checks += 1
            if not oracles.minkowski_by_scaling_scan(rep, y, probes):
                failures.append(f"family {t}: scaling scan disagrees at {y}")

        inside_a = [y for y in samples if member_a(flat, y)]
        ts = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        for a in inside_a[:4]:
            for b in inside_a[:4]:
                for tt in ts:
                    combo = a.scale(ExtReal.from_fraction(tt)) + b.scale(
                        ExtReal.from_fraction(1 - tt)
                    )
                    checks += 1
                    if not member_a(flat, combo):
                        failures.append(f"family {t}: closed side not convex")
        inside_u = [y for y in samples if member_u(first_min, y)]
        for a in inside_u[:4]:
            for b in inside_u[:4]:
                for tt in ts:
                    combo = a.scale(ExtReal.from_fraction(tt)) + b.scale(
                        ExtReal.from_fraction(1 - tt)
                    )
                    checks += 1
                    if not member_u(first_min, combo):
                        failures.append(f"family {t}: open side not convex")
    return _report("minkowski", seed, families, checks, failures)


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


def suite_schroeder_simpson(
    seed: int = DEFAULT_SEED,
    vectors: int = 50,
    valuations: int = 200,
    max_size: int = 5,
    mobius_max_size: int = 4,
    mobius_values: tuple = (0, 1, 2, 3),
):
    rng = random.Random(seed)
    failures = []
    checks = 0
    cases = 0
    for n in range(1, max_size + 1):
        for p_idx, poset in enumerate(posets_up_to_iso(n)):
            mus = [random_simple_valuation(rng, poset) for _ in range(valuations)]
            for v in range(vectors):
                cases += 1
                coeffs = _rand_coeffs(rng, poset)
                phi = DualFunctional(coeffs)
                ok, pair = is_lsc(coeffs, poset)
                if ok:
                    f = recover_function(phi, poset)
                    checks += 1
                    if f.values != tuple(coeffs):
                        failures.append(f"poset {n}/{p_idx} vector {v}: wrong recovery")
                        continue
                    for mu in mus:
                        checks += 1
                        if eval_valuation(mu, f) != phi.eval(mu):
                            failures.append(
                                f"poset {n}/{p_idx} vector {v}: evaluation mismatch"
                            )
                            break
                else:
                    checks += 1
                    try:
                        recover_function(phi, poset)
                        failures.append(
                            f"poset {n}/{p_idx} vector {v}: non-monotone accepted"
                        )
                    except NotLSC as exc:
                        x, y = exc.witness
                        if not (poset.leq(x, y) and not coeffs[x] <= coeffs[y]):
                            failures.append(
                                f"poset {n}/{p_idx} vector {v}: invalid witness pair"
                            )
    for n in range(1, mobius_max_size + 1):
        for p_idx, poset in enumerate(posets_up_to_iso(n)):
            for weights in product(mobius_values, repeat=n):
                cases += 1
                mu = SimpleValuation(poset, weights)
                nu = to_opens(mu)
                checks += 1
                if from_opens(nu) != mu:
                    failures.append(f"mobius {n}/{p_idx} {weights}: weight round trip")
                checks += 1
                if to_opens(from_opens(nu)) != nu:
                    failures.append(f"mobius {n}/{p_idx} {weights}: table round trip")
    return _report("schroeder-simpson", seed, cases, checks, failures)


# ---------------------------------------------------------------------------
# the projection regression


def suite_regression(seed: int = DEFAULT_SEED):
    failures = []
    checks = 0
    c_gens = [LinFun([ONE, ZERO]), LinFun([ONE, ONE])]
    y = ExtVec([ONE, ONE])
    y_prime = ExtVec([ExtReal(2), ZERO])
    checks += 1
    if not specialization_leq(y, y_prime, c_gens):
        failures.append("(1,1) should precede (2,0) in the induced order")
    proj = LinFun([ZERO, ONE])
    checks += 1
    if not (proj.eval(y) == ONE and proj.eval(y_prime) == ZERO):
        failures.append("second projection values changed")
    checks += 1
    if proj.eval(y) <= proj.eval(y_prime):
        failures.append("second projection unexpectedly monotone")
    return _report("regression", seed, 1, checks, failures)


# ---------------------------------------------------------------------------
# directedness of the dominated set, at desk scale.  Every case passes by
# construction: the monotone grid functions below c are closed under
# pointwise maximum, so check_dominated_directed returns (True, None) on
# valid input; the suite runs its running-maximum self-check on every poset.


def suite_directedness(
    seed: int = DEFAULT_SEED,
    max_size: int = 4,
    functionals_per_poset: int = 3,
    grid_denominator: int = 2,
    cap: int = 2,
):
    rng = random.Random(seed)
    failures = []
    checks = 0
    cases = 0
    for n in range(1, max_size + 1):
        for p_idx, poset in enumerate(posets_up_to_iso(n)):
            for v in range(functionals_per_poset):
                cases += 1
                coeffs = _rand_coeffs(rng, poset)
                phi = DualFunctional(coeffs)
                ok, pair = check_dominated_directed(phi, poset, grid_denominator, ExtReal(cap))
                checks += 1
                if not ok:
                    failures.append(
                        f"poset {n}/{p_idx} functional {v}: pair without upper bound {pair}"
                    )
    return _report("directedness", seed, cases, checks, failures)


SUITES = {
    "extreal": suite_extreal,
    "separation": suite_separation,
    "interpolation": suite_interpolation,
    "minkowski": suite_minkowski,
    "schroeder-simpson": suite_schroeder_simpson,
    "regression": suite_regression,
    "directedness": suite_directedness,
}


def run_suite(name: str, seed: int = DEFAULT_SEED, max_size: int = None):
    fn = SUITES[name]
    if max_size is not None and name == "schroeder-simpson":
        return fn(seed, max_size=min(max_size, 5), mobius_max_size=min(max_size, 4))
    if max_size is not None and name == "directedness":
        return fn(seed, max_size=min(max_size, 4))
    return fn(seed)
