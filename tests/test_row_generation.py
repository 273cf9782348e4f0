"""Row generation in ``separate``: LP rounds on a growing subset of the
generators must give the verdict of the one LP on all of them, and every
answer must hold for every generator.
"""

import importlib
import random
from fractions import Fraction

import pytest

from conedual import (
    INF,
    ExtReal,
    ExtVec,
    MeetsCorner,
    Separated,
    separate,
    verify_meets_corner,
    verify_separated,
)
from conedual.lp import LPProblem, solve_lp

F = Fraction
convex_sep = importlib.import_module("conedual.convex_sep")


def _one_lp(gens, dim, fin, inf_coords):
    """``convex_sep._separation_lp`` without rounds, one LP with a row for
    every generator: the reference."""
    forms = [g._form for g in gens]
    k = len(fin)
    constraints = [(1,) * (k + 1)]
    for nums, d, _, _ in forms:
        constraints.append(tuple(nums[i] for i in fin) + (d,))
    res = solve_lp(LPProblem(k, constraints, (1,) * k))

    if res.value == 1:
        full = [0] * dim
        for pos, i in enumerate(fin):
            full[i] = res.point[pos]
        return Separated(tuple(full))

    assert res.value < 1
    w = [v * form[1] for v, form in zip(res.yn[1:], forms)]
    return MeetsCorner(convex_sep._witness_from_certificate(gens, fin, inf_coords, w))


def _rand_gens(rng, dim, count):
    top = rng.choice((2, 3))
    return [
        ExtVec([INF if rng.random() < 0.03 else ExtReal(F(rng.randint(0, top), rng.randint(1, 3)))
                for _ in range(dim)])
        for _ in range(count)
    ]


def _cases(seed, count):
    """Seeded instances with more generators than coordinates, so that the
    first subset leaves some out; a few carry ``inf`` entries."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        dim = rng.randint(2, 8)
        cases.append((_rand_gens(rng, dim, rng.randint(dim + 1, 5 * dim)), dim))
    return cases


def _split(gens, dim):
    """The finite coordinates and the coordinates where some generator is ``inf``."""
    inf_mask = 0
    for g in gens:
        inf_mask |= g._form[2]
    return ([i for i in range(dim) if not inf_mask >> i & 1],
            [i for i in range(dim) if inf_mask >> i & 1])


def _spy_solves(monkeypatch):
    """Record every LPProblem that ``convex_sep`` solves."""
    problems = []

    def solve(problem):
        problems.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(convex_sep, "solve_lp", solve)
    return problems


def test_rounds_give_the_one_lps_verdicts_and_answers_that_hold_for_all_generators(monkeypatch):
    # every instance reaches the LP, the screens' answers included
    monkeypatch.setattr(convex_sep, "_screen", lambda gens, dim, fin: None)
    problems = _spy_solves(monkeypatch)
    kinds = {}
    for gens, dim in _cases(2718, 300):
        before = len(problems)
        got = separate(gens, dim)
        rounds = len(problems) - before
        fin, inf_coords = _split(gens, dim)
        # with every coordinate infinite the hull meets the corner, and no LP runs
        want = _one_lp(gens, dim, fin, inf_coords) if fin else MeetsCorner(())
        assert type(got) is type(want), (gens, got)
        if type(got) is Separated:
            assert verify_separated(gens, got.weights, dim), (gens, got)
        else:
            assert verify_meets_corner(gens, got.witness), (gens, got)
        key = type(got), bool(inf_coords), rounds > 1
        kinds[key] = kinds.get(key, 0) + 1
    # both outcomes, each with and without inf entries, and each over several rounds
    assert all(kinds.get((kind, inf, False), 0) >= 10
               for kind in (Separated, MeetsCorner) for inf in (False, True)), kinds
    assert kinds.get((Separated, True, True), 0) + kinds.get((Separated, False, True), 0) >= 5, kinds
    assert kinds.get((MeetsCorner, True, True), 0) + kinds.get((MeetsCorner, False, True), 0) >= 10, kinds


def test_each_round_adds_the_most_violated_generators(monkeypatch):
    monkeypatch.setattr(convex_sep, "_screen", lambda gens, dim, fin: None)
    problems = _spy_solves(monkeypatch)
    multi = 0
    for gens, dim in _cases(1414, 300):
        fin, _ = _split(gens, dim)
        before = len(problems)
        separate(gens, dim)
        rounds = problems[before:]
        if not fin:
            assert not rounds
            continue
        rows = [(tuple(g._form[0][i] for i in fin), g._form[1]) for g in gens]
        # the first subset: the len(fin) generators of largest uniform pairing, in index order
        ranked = sorted(range(len(gens)), key=lambda j: -F(sum(rows[j][0]), rows[j][1]))
        first = [rows[j] for j in sorted(ranked[:len(fin)])]
        assert [(c[:-1], c[-1]) for c in rounds[0].constraints[1:]] == first
        for prev, cur in zip(rounds, rounds[1:]):
            # no row leaves, and at least one and at most max(1, len(fin) // 2) join
            prev_rows = [c[:-1] for c in prev.constraints]
            cur_rows = [c[:-1] for c in cur.constraints]
            assert set(prev_rows) <= set(cur_rows)
            assert 1 <= len(cur_rows) - len(prev_rows) <= max(1, len(fin) // 2)
            # the weights of the last round pair every row that joined above
            # one, and no row left out above the least of them
            x = solve_lp(prev).point

            def pairing(coeffs, rhs):
                return sum(a * v for a, v in zip(coeffs, x)) / rhs

            joined = [pairing(c[:-1], c[-1]) for c in cur.constraints if c[:-1] not in prev_rows]
            assert min(joined) > 1
            assert all(pairing(*row) <= min(joined) for row in rows if row[0] not in cur_rows)
        multi += len(rounds) > 1
    assert multi >= 10, multi


def test_few_generators_solve_the_one_lp():
    # with at most as many generators as finite coordinates, the first
    # subset is all of them, so one round is the whole LP
    rng = random.Random(577)
    kinds = {Separated: 0, MeetsCorner: 0}
    for _ in range(120):
        dim = rng.randint(2, 6)
        gens = _rand_gens(rng, dim, rng.randint(1, dim))
        fin, inf_coords = _split(gens, dim)
        if len(gens) > len(fin):
            continue
        got = convex_sep._separation_lp(gens, dim, fin, inf_coords)
        assert got == _one_lp(gens, dim, fin, inf_coords), gens
        kinds[type(got)] += 1
    assert min(kinds.values()) >= 5, kinds


def test_the_final_check_catches_a_violation_scan_that_misses_a_generator(monkeypatch):
    monkeypatch.setattr(convex_sep, "_screen", lambda gens, dim, fin: None)
    problems = _spy_solves(monkeypatch)
    multi = []
    for gens, dim in _cases(2718, 120):
        before = len(problems)
        separate(gens, dim)
        if len(problems) - before > 1:
            multi.append((gens, dim))
    assert len(multi) >= 10, len(multi)
    # a scan that reports no violated generator stops after the first round,
    # whose weights fail some generator outside the first subset
    monkeypatch.setattr(convex_sep, "_violated", lambda rows, dens, outside, xn, xd: [])
    for gens, dim in multi:
        with pytest.raises(AssertionError, match="separation weights failed verification"):
            separate(gens, dim)
