"""Brute-force cross-checks, deliberately independent of the LP machinery.

These reimplement decisions by exhaustive enumeration so the production
algorithms can be validated against them.  They share nothing with the
simplex solver beyond exact rational arithmetic.
"""

from __future__ import annotations

from math import lcm

from .extreal import ONE, as_extvec

# the weights are the multiples of 1/_STEPS
_STEPS = 32


def hull_meets_corner_dyadic(generators, dim: int) -> bool:
    """Search all convex combinations with weights k/32.

    Exhaustive over weight compositions, with two decision-preserving
    reductions: generators dominated coordinatewise by another are dropped
    (moving their weight upward keeps the combination in the corner, which
    is an upper set), and branches whose best possible completion cannot
    push every coordinate above one are pruned.
    """
    gens = [as_extvec(g) for g in generators]
    if any(g.dim != dim for g in gens):
        raise ValueError("generator dimension disagrees")

    # a single generator already inside the corner settles it
    for g in gens:
        if all(ONE < e for e in g):
            return True

    # a coordinate nobody can lift above one settles it the other way
    for i in range(dim):
        if all(g[i].is_finite and g[i] <= ONE for g in gens):
            return False

    gens = _drop_dominated(gens)
    m = len(gens)

    # per-coordinate integer scaling: weights become integers k_j summing to
    # _STEPS, and coordinate i passes when the scaled sum exceeds
    # _STEPS * scale_i (or an infinite entry carries positive weight)
    scales = []
    fin = []
    infmask = []
    for i in range(dim):
        dens = [g[i].den for g in gens if g[i].is_finite]
        scales.append(lcm(*dens) if dens else 1)
    for j, g in enumerate(gens):
        row = []
        mask = 0
        for i in range(dim):
            if g[i].is_infinite:
                mask |= 1 << i
                row.append(0)
            else:
                row.append(g[i].num * (scales[i] // g[i].den))
        fin.append(row)
        infmask.append(mask)
    targets = [_STEPS * s for s in scales]

    # suffix data for pruning: the best finite entry and whether an infinite
    # entry is still ahead, per coordinate
    suffix_max = [[0] * dim for _ in range(m + 1)]
    suffix_inf = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        suffix_inf[j] = suffix_inf[j + 1] | infmask[j]
        for i in range(dim):
            suffix_max[j][i] = max(suffix_max[j + 1][i], fin[j][i])

    full = (1 << dim) - 1

    def satisfied(sums, infhit):
        got = infhit
        for i in range(dim):
            if not got >> i & 1 and sums[i] > targets[i]:
                got |= 1 << i
        return got == full

    def dfs(j, remaining, sums, infhit):
        if satisfied(sums, infhit):
            return True
        if j == m or remaining == 0:
            return False
        # prune coordinates that cannot reach their target any more
        for i in range(dim):
            if infhit >> i & 1:
                continue
            if suffix_inf[j] >> i & 1:
                continue
            if sums[i] + remaining * suffix_max[j][i] <= targets[i]:
                return False
        row = fin[j]
        jinf = infmask[j]
        for k in range(remaining, -1, -1):
            if k:
                nsums = [s + k * row[i] for i, s in enumerate(sums)]
                nhit = infhit | jinf
            else:
                nsums = sums
                nhit = infhit
            if dfs(j + 1, remaining - k, nsums, nhit):
                return True
        return False

    return dfs(0, _STEPS, [0] * dim, 0)


def _drop_dominated(gens):
    keep = []
    for j, g in enumerate(gens):
        dominated = False
        for t, h in enumerate(gens):
            if t == j:
                continue
            if all(a <= b for a, b in zip(g, h)) and (g != h or t < j):
                dominated = True
                break
        if not dominated:
            keep.append(g)
    return keep


def minkowski_by_scaling_scan(rep, y, probes) -> bool:
    """Bracket the closed-form Minkowski value by raw membership tests.

    For every probe r > 0: membership of y / r in the open set must hold
    exactly when r is below the reported value.
    """
    from .functionals import minkowski

    value = minkowski(rep, y)
    for r in probes:
        if not r.is_finite or r.is_zero:
            raise ValueError("probes must be finite and positive")
        scaled = [e / r for e in y]
        inside = rep.contains(scaled)
        if inside != (r < value):
            return False
    return True
