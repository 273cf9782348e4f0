"""Seeded request generators for the benchmark workloads.

Request ``k`` of a workload depends only on ``(workload, seed, k)``, so a
pool of any length is reproducible and its prefix does not depend on how
many requests follow.  Each request is the argv and stdin text a user
would hand to ``conedual``, plus what the independent checker needs to
know about how the input was planted.

Mixes are fixed-ratio patterns over ``k`` (shape, outcome side, command),
and only the numbers inside each request are random.  That keeps the
spread between seeds small while every seed still draws fresh inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class Request:
    argv: tuple
    body: str
    tag: str
    planted: dict = field(default_factory=dict)


def _rng(workload, seed, k):
    # str seeds go through sha512, so draws do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{k}")


def _text(v):
    if v is None:
        return "inf"
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def _cycle(lo, hi, i):
    """The i-th size of a fixed cycle through lo..hi.

    Sizes follow the request index rather than the seed, so every seed
    sends the same mix of sizes and only the numbers differ."""
    return lo + i % (hi - lo + 1)


def _ratio(rng, hi, qmax):
    """A p/q draw with q <= qmax and value in [0, hi]."""
    q = rng.randint(1, qmax)
    return Fraction(rng.randint(0, int(hi * q)), q)


# -------------------------------------------------------------------- sep

SEP_SHAPES = ((8, 16), (10, 30), (12, 40))
# Shapes in the ratio 12:3:1, spread over the period.  Per-request time
# varies widely within a shape, so a run's p50 and p90 are steadiest where
# they fall inside dense groups rather than between them: p50 among the
# 8x16 and short interpolate requests, p90 among the 10x30 and five-clause
# interpolate requests, with the 12x40 requests (1 in 32) above it.
_A, _B, _C = SEP_SHAPES
SEP_MIX = (_A, _B, _A, _A, _A, _A, _C, _A, _A, _A, _B, _A, _A, _A, _B, _A)
# Upper ends of the entry range on each side of the outcome threshold:
# entries in [0, SEP_SEPARATE_HI] leave the hull separated from the open
# corner, entries in [0, SEP_MEET_HI] make it meet the corner.
SEP_SEPARATE_HI = 1.4
SEP_MEET_HI = 2.0
SEP_QMAX = 16
SEP_INF_ONE_IN = 200


def sep_request(seed, k):
    dim, n_gens = SEP_MIX[k % len(SEP_MIX)]
    side = "separate" if (k // len(SEP_MIX)) % 2 == 0 else "meet"
    hi = SEP_SEPARATE_HI if side == "separate" else SEP_MEET_HI
    rng = _rng("sep-lp", seed, k)
    gens = [
        [
            "inf" if rng.randrange(SEP_INF_ONE_IN) == 0 else _text(_ratio(rng, hi, SEP_QMAX))
            for _ in range(dim)
        ]
        for _ in range(n_gens)
    ]
    body = _dumps({"dim": dim, "generators": gens})
    return Request(("sep",), body, f"{dim}x{n_gens}")


# ------------------------------------------------------------ interpolate

INTERP_GENS = (6, 10)
INTERP_DIM = (3, 6)
INTERP_CLAUSES = (3, 5)
INTERP_MEMBERS = (1, 3)
INTERP_VIOLATION_EVERY = 5
INTERP_QMAX = 8


def _combination(rng, members):
    """Branch coefficients: a convex combination of the members, or one member."""
    if len(members) == 1 or rng.randrange(3) == 0:
        return list(rng.choice(members))
    raw = [rng.randint(1, 4) for _ in members]
    total = sum(raw)
    dim = len(members[0])
    return [
        sum(Fraction(w, total) * m[j] for w, m in zip(raw, members)) for j in range(dim)
    ]


def interp_request(seed, k):
    """Clauses over shared generators with a target phi planted above each.

    phi gets one branch per clause: a convex combination of the clause's
    members (or one member) plus a nonnegative bump, so every clause's
    minimum stays below phi.  Every fifth request appends one generator
    that exceeds every branch in every coordinate and inserts a one-member
    clause on it at a random position; that clause, and only it, violates
    the hypothesis.
    """
    rng = _rng("interp-clauses", seed, k)
    dim = _cycle(*INTERP_DIM, k)
    n_gens = _cycle(*INTERP_GENS, k // 4)
    gens = [[_ratio(rng, 3, INTERP_QMAX) for _ in range(dim)] for _ in range(n_gens)]
    clauses = []
    # request time roughly doubles per clause, so clause counts, like the
    # other sizes, cycle rather than being drawn
    lo, hi = INTERP_CLAUSES
    for c in range(_cycle(lo, hi, k)):
        clauses.append(sorted(rng.sample(range(n_gens), _cycle(*INTERP_MEMBERS, k + c))))
    branches = []
    for clause in clauses:
        base = _combination(rng, [gens[i] for i in clause])
        bump = [Fraction(0) if rng.randrange(2) else _ratio(rng, 1, 4) for _ in range(dim)]
        branches.append([b + d for b, d in zip(base, bump)])
    planted = None
    if k % INTERP_VIOLATION_EVERY == INTERP_VIOLATION_EVERY - 1:
        top = [max(b[j] for b in branches) for j in range(dim)]
        gens.append([t + Fraction(rng.randint(1, 4), rng.randint(1, 4)) for t in top])
        planted = rng.randint(0, len(clauses))
        clauses.insert(planted, [len(gens) - 1])
    body = _dumps(
        {
            "c_gens": [[_text(v) for v in g] for g in gens],
            "clauses": clauses,
            "phi": {"kind": "max", "branches": [[_text(v) for v in b] for b in branches]},
        }
    )
    return Request(("interpolate",), body, "violated" if planted is not None else "holds",
                   {"clause": planted})


# ----------------------------------------------------------------- lp-mix

def lp_mix_request(seed, k):
    """sep and interpolate requests in turn, each following its own pattern."""
    return (sep_request if k % 2 == 0 else interp_request)(seed, k // 2)


# ----------------------------------------------------------- finite-eval

# 6 minkowski, 6 spec-order, 2 ss-recover and one mobius round trip.  The
# first two take about 1.6x as long as the others; with them at 3/4 of the
# mix the p50 falls inside their group instead of in the gap between groups,
# where a run's p50 swings with the share of slow stretches on a shared machine.
FINITE_PATTERN = (
    "minkowski", "spec-order", "ss-recover", "minkowski", "spec-order", "mobius-to",
    "minkowski", "spec-order", "minkowski", "spec-order", "minkowski", "spec-order",
    "ss-recover", "minkowski", "spec-order", "mobius-from",
)
MINK_BLOCKS = (10, 30)
MINK_BLOCK_SIZE = (2, 6)
FINITE_DIM = 8
SPEC_GENS = 60
SS_SIZE = (30, 60)
SS_NON_MONOTONE_EVERY = 4
MOBIUS_SIZE = (7, 10)


def _serial(k, kind):
    """How many requests of this kind come before request k."""
    period, pos = divmod(k, len(FINITE_PATTERN))
    return period * FINITE_PATTERN.count(kind) + FINITE_PATTERN[:pos].count(kind)


def _ext(rng, hi, qmax, inf_one_in):
    return None if rng.randrange(inf_one_in) == 0 else _ratio(rng, hi, qmax)


def random_poset(rng, n, edge_prob):
    """Strict order pairs (i, j), i < j, transitively closed."""
    above = [set() for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if j not in above[i] and rng.random() < edge_prob:
                above[i].add(j)
                above[i] |= above[j]
    return sorted((i, j) for i in range(n) for j in above[i])


def up_sets(n, pairs):
    """All up-sets of the order as bitmasks, ascending."""
    ups = [1 << i for i in range(n)]
    for i, j in pairs:
        ups[i] |= 1 << j
    return [
        mask for mask in range(1 << n)
        if all(not (mask >> i & 1) or ups[i] & ~mask == 0 for i in range(n))
    ]


def mobius_table(n, pairs, weights):
    """Open-set table of pointwise weights, computed without conedual."""
    table = []
    for mask in up_sets(n, pairs):
        vals = [weights[i] for i in range(n) if mask >> i & 1]
        total = None if any(v is None for v in vals) else sum(vals, Fraction(0))
        table.append({"open": [i for i in range(n) if mask >> i & 1], "value": _text(total)})
    return table


def _minkowski(rng, k):
    serial = _serial(k, "minkowski")
    blocks = [
        [[_text(_ext(rng, 4, 8, 50)) for _ in range(FINITE_DIM)]
         for _ in range(_cycle(*MINK_BLOCK_SIZE, serial + b))]
        for b in range(_cycle(*MINK_BLOCKS, serial))
    ]
    y = [_text(_ext(rng, 4, 8, 20)) for _ in range(FINITE_DIM)]
    return ("minkowski",), {"blocks": blocks, "y": y}, {}


def _spec_order(rng, k):
    gens = [[_text(_ext(rng, 4, 8, 50)) for _ in range(FINITE_DIM)] for _ in range(SPEC_GENS)]
    y = [_ratio(rng, 4, 8) for _ in range(FINITE_DIM)]
    # y_prime dominates y coordinatewise on half the requests, so every
    # generator is compared; on the other half one coordinate drops.
    y_prime = [v + _ratio(rng, 1, 4) for v in y]
    if _serial(k, "spec-order") % 2:
        j = rng.randrange(FINITE_DIM)
        y, y_prime = list(y), list(y_prime)
        y[j] = y_prime[j] + 1
    return ("spec-order",), {
        "c_gens": gens, "y": [_text(v) for v in y], "y_prime": [_text(v) for v in y_prime]
    }, {}


def _ss_recover(rng, k):
    n = _cycle(*SS_SIZE, _serial(k, "ss-recover"))
    pairs = random_poset(rng, n, 2.0 / n)
    below = [[] for _ in range(n)]
    for i, j in pairs:
        below[j].append(i)
    coeffs = []
    for j in range(n):
        lows = [coeffs[i] for i in below[j]]
        if any(v is None for v in lows):
            coeffs.append(None)
            continue
        floor = max(lows, default=Fraction(0))
        coeffs.append(None if rng.randrange(40) == 0 else floor + _ratio(rng, 2, 6))
    if _serial(k, "ss-recover") % SS_NON_MONOTONE_EVERY == SS_NON_MONOTONE_EVERY - 1:
        finite = [(i, j) for i, j in pairs if coeffs[j] is not None]
        if finite:
            i, j = rng.choice(finite)
            coeffs[i] = coeffs[j] + rng.randint(1, 3)
    return ("ss-recover",), {
        "size": n, "leq": [list(p) for p in pairs], "coeffs": [_text(v) for v in coeffs]
    }, {}


def _mobius(seed, k):
    # both halves of a round trip draw the same poset and weights
    trip = k // len(FINITE_PATTERN)
    rng = _rng("finite-eval:mobius", seed, trip)
    n = _cycle(*MOBIUS_SIZE, trip)
    pairs = random_poset(rng, n, 0.35)
    weights = [_ratio(rng, 4, 6) for _ in range(n)]
    # a quarter of the trips put infinity on a minimal element (weights
    # still recoverable), a quarter on an element with something below it
    # (recovery needs inf - inf, a documented exit 2)
    has_below = sorted({j for _, j in pairs})
    minimal = [i for i in range(n) if i not in has_below]
    if trip % 4 == 2:
        weights[rng.choice(minimal)] = None
    elif trip % 4 == 3 and has_below:
        weights[rng.choice(has_below)] = None
    poset = {"size": n, "leq": [list(p) for p in pairs]}
    if FINITE_PATTERN[k % len(FINITE_PATTERN)] == "mobius-to":
        return ("mobius",), {**poset, "direction": "to_opens",
                             "weights": [_text(w) for w in weights]}, {}
    return ("mobius",), {**poset, "direction": "from_opens",
                         "table": mobius_table(n, pairs, weights)}, {
        "weights": [_text(w) for w in weights]}


def finite_request(seed, k):
    kind = FINITE_PATTERN[k % len(FINITE_PATTERN)]
    rng = _rng("finite-eval", seed, k)
    if kind == "minkowski":
        argv, payload, planted = _minkowski(rng, k)
    elif kind == "spec-order":
        argv, payload, planted = _spec_order(rng, k)
    elif kind == "ss-recover":
        argv, payload, planted = _ss_recover(rng, k)
    else:
        argv, payload, planted = _mobius(seed, k)
    return Request(argv, _dumps(payload), kind, planted)


@dataclass(frozen=True)
class Workload:
    name: str
    make: object
    # requests run untimed before measuring
    warmup: int
    # pool length; the closed loop cycles through it
    pool: int
    # requests in one pass of the traced run, a whole number of mix periods
    trace_requests: int


WORKLOADS = {
    w.name: w
    for w in (
        # 64 requests hold the sep pattern on both sides (32) and 32
        # interpolate requests, six violations among them
        Workload("lp-mix", lp_mix_request, warmup=4, pool=192, trace_requests=64),
        Workload("finite-eval", finite_request, warmup=80, pool=480, trace_requests=240),
    )
}


def make_pool(workload: Workload, seed: int, count: int):
    return [workload.make(seed, k) for k in range(count)]
