import random
from fractions import Fraction

import pytest

from conedual import (
    INF,
    ONE,
    ZERO,
    ExtReal,
    ExtVec,
    LinFun,
    OpenSetRep,
    SublinFun,
    SuperlinFun,
    clause_witnesses,
    dominated_by_max,
    ext_min,
    leq_functional,
    member_a,
    member_u,
    minkowski,
    parse_extreal,
    specialization_leq,
)
from conedual.errors import DimensionMismatch, EmptyList
from conedual.functionals import _margin
from conedual.oracles import minkowski_by_scaling_scan, order_holds

F = Fraction


def _least(block, y):
    """A block's least pairing with y by ``ExtVec.dot``, not the max-min walk."""
    return ext_min(f.eval(y) for f in block)


def _rand_linfun(rng, dim, inf_chance=0):
    entries = []
    for _ in range(dim):
        if inf_chance and rng.randrange(inf_chance) == 0:
            entries.append(INF)
        else:
            entries.append(ExtReal(rng.randint(0, 6), rng.randint(1, 3)))
    return LinFun(entries)


def _rand_point(rng, dim, inf_chance=8):
    entries = []
    for _ in range(dim):
        if rng.randrange(inf_chance) == 0:
            entries.append(INF)
        else:
            entries.append(ExtReal(rng.randint(0, 8), rng.randint(1, 4)))
    return ExtVec(entries)


def test_eval_examples():
    assert LinFun([1, 1]).eval(ExtVec([2, 3])) == ExtReal(5)
    assert SuperlinFun([[2, 0], [0, 2]]).eval(ExtVec([1, 4])) == ExtReal(2)
    assert LinFun([0, 1]).eval(ExtVec([INF, 0])) == ZERO
    assert SublinFun([[2, 0], [0, 2]]).eval(ExtVec([1, 4])) == ExtReal(8)


def test_eval_validation():
    with pytest.raises(DimensionMismatch):
        LinFun([1, 1]).eval(ExtVec([1, 2, 3]))
    with pytest.raises(EmptyList):
        SublinFun([])
    with pytest.raises(DimensionMismatch):
        SublinFun([[1, 2], [1, 2, 3]])
    # an open set's blocks are validated as SuperlinFun, and then against each other
    with pytest.raises(EmptyList):
        OpenSetRep([[]])
    with pytest.raises(DimensionMismatch, match="branches disagree"):
        OpenSetRep([[[1, 2], [1, 2, 3]]])
    with pytest.raises(DimensionMismatch, match="blocks disagree"):
        OpenSetRep([[[1, 2]], [[1, 2, 3]]])


def test_membership_examples():
    phi = LinFun([1, 1])
    assert member_u(phi, ExtVec([1, 1]))
    assert member_a(phi, ExtVec([ExtReal(1, 2), ExtReal(1, 2)]))
    zero = ExtVec([0, 0])
    for f in (phi, SublinFun([[3, 1]]), SuperlinFun([[5, INF]])):
        assert member_a(f, zero)
        assert not member_u(f, zero)


def test_membership_complementarity():
    rng = random.Random(3)
    for _ in range(60):
        dim = rng.randint(1, 4)
        f = SublinFun([_rand_linfun(rng, dim, 12) for _ in range(rng.randint(1, 3))])
        y = _rand_point(rng, dim)
        assert member_u(f, y) != member_a(f, y)


def test_minkowski_examples():
    assert minkowski(OpenSetRep([[[1, 1]]]), ExtVec([2, 3])) == ExtReal(5)
    assert minkowski(OpenSetRep([[[2, 0], [0, 2]]]), ExtVec([1, 4])) == ExtReal(2)
    assert minkowski(OpenSetRep([[[1, 1]], [[2, 0], [0, 2]]]), ExtVec([0, 0])) == ZERO
    assert minkowski(OpenSetRep([]), ExtVec([5, 5])) == ZERO


def test_minkowski_matches_min_of_block():
    rng = random.Random(17)
    for _ in range(50):
        dim = rng.randint(1, 4)
        block = [_rand_linfun(rng, dim, 10) for _ in range(rng.randint(1, 3))]
        rep = OpenSetRep([block])
        for _ in range(8):
            y = _rand_point(rng, dim)
            assert minkowski(rep, y) == _least(block, y)


def test_minkowski_scaling_scan():
    rep = OpenSetRep([[[1, 1]], [[2, 0], [0, 2]]])
    for y in (ExtVec([2, 3]), ExtVec([1, 4]), ExtVec([0, 0]), ExtVec([INF, 2])):
        value = minkowski(rep, y)
        probes = [ExtReal(1, 2), ONE, ExtReal(2), ExtReal(100)]
        if value.is_finite and not value.is_zero:
            v = value.as_fraction()
            probes += [ExtReal(v / 2), value, ExtReal(2 * v)]
        assert minkowski_by_scaling_scan(rep, y, value, probes)
    # a wrong claimed value is caught by some probe
    assert not minkowski_by_scaling_scan(rep, ExtVec([2, 3]), ExtReal(2), [ExtReal(3)])


def test_open_set_membership_is_union_of_blocks():
    rep = OpenSetRep([[[2, 0], [0, 2]], [[0, 3]]])
    assert rep.contains(ExtVec([2, 2]))          # first block
    assert rep.contains(ExtVec([0, ExtReal(1, 2)]))  # second block: 3 * 1/2 > 1
    assert not rep.contains(ExtVec([2, ExtReal(1, 4)]))


def _unpruned_minkowski(blocks, y):
    """Every block's least pairing, the greatest of them: the reference."""
    best = ZERO
    for block in blocks:
        v = _least(block, y)
        if best < v:
            best = v
    return best


def _walk_case(rng, seen):
    """Blocks and a point with inf entries in both; some cases add a block of
    all-inf vectors, a block that starts with the best block's least vector
    (a pairing equal to the best), no block at all, or y = 0."""
    dim = rng.randint(1, 4)
    y = ExtVec([0] * dim) if rng.randrange(8) == 0 else _rand_point(rng, dim, 6)
    blocks = [[_rand_linfun(rng, dim, 6) for _ in range(rng.randint(1, 4))]
              for _ in range(rng.randint(0, 5))]
    if blocks and rng.randrange(3) == 0:
        top = max(blocks, key=lambda b: _least(b, y))
        low = min(top, key=lambda f: f.eval(y))
        blocks.append([low] + [_rand_linfun(rng, dim, 6) for _ in range(rng.randint(0, 2))])
    if rng.randrange(6) == 0:
        blocks.insert(rng.randint(0, len(blocks)), [LinFun([INF] * dim)] * rng.randint(1, 2))
    seen["inf in y"] += any(e == INF for e in y)
    seen["inf in a block"] += any(e == INF for block in blocks for f in block for e in f.coeffs)
    seen["y = 0"] += all(e == ZERO for e in y)
    seen["empty union"] += not blocks
    best = ZERO
    for block in blocks:
        v = _least(block, y)
        seen["a block's least pairing ties the best"] += v == best and best != ZERO
        seen["a block pairs inf throughout"] += v == INF
        best = max(best, v)
    return blocks, y


def test_max_min_walk_gives_the_unpruned_answers():
    rng = random.Random(4229)
    seen = dict.fromkeys(["inf in y", "inf in a block", "y = 0", "empty union",
                          "a block's least pairing ties the best", "a block pairs inf throughout"], 0)
    answers = {"inf": 0, "finite": 0, "inside": 0, "outside": 0}
    for _ in range(400):
        blocks, y = _walk_case(rng, seen)
        rep = OpenSetRep(blocks)
        value = minkowski(rep, y)
        assert _same(value, _unpruned_minkowski(blocks, y))
        answers["inf" if value == INF else "finite"] += 1
        probes = [ExtReal(1, 3), ONE, ExtReal(7, 2)]
        points = [y]
        if value != INF and value != ZERO:
            probes += [value, value * ExtReal(1, 2), value * 2]
            # where the best is exactly one, and just above
            points += [y.scale(ONE / value), y.scale(ExtReal(2) / value)]
        assert minkowski_by_scaling_scan(rep, y, value, probes)
        for point in points:
            inside = rep.contains(point)
            assert inside == any(ONE < _least(block, point) for block in blocks)
            answers["inside" if inside else "outside"] += 1
    assert min(seen.values()) >= 10, seen
    assert min(answers.values()) >= 40, answers


def _expected_reads(blocks, y, best, first):
    """The (block, vector) indices the walk reads: each block up to its first
    finite pairing at or below the best so far, and nothing after a block
    that pairs inf throughout or, with ``first``, after the first block
    whose least pairing beats the best."""
    reads = []
    for i, block in enumerate(blocks):
        low = INF
        for k, f in enumerate(block):
            reads.append((i, k))
            v = f.eval(y)
            if v == INF:
                continue
            if v <= best:
                break
            low = min(low, v)
        else:
            if low == INF or first:
                break
            best = low
    return reads


def test_a_pruned_block_vector_never_builds_its_form(monkeypatch):
    from conedual import extreal
    from conedual.jsonio import decode_open_set, decode_vector

    built = []
    canonical_form = extreal._canonical_form

    def counted(*args, **kwargs):
        built.append(args)
        return canonical_form(*args, **kwargs)

    monkeypatch.setattr(extreal, "_canonical_form", counted)

    def read(rep):
        return [(i, k) for i, block in enumerate(rep.blocks)
                for k, f in enumerate(block.branches) if type(f.coeffs) is ExtVec]

    # the first block's pairing 2 prunes (9, 9) after (0, 1); the last block pairs inf throughout
    doc = {"blocks": [[["1", "1"]], [["0", "1"], ["9", "9"]], [["inf", "1"], ["2", "inf"]]]}
    rep = decode_open_set(doc, "$")
    y = ExtVec([1, 1])
    assert len(built) == 1 and read(rep) == []
    built.clear()
    assert minkowski(rep, y) == INF
    assert len(built) == 4 and read(rep) == [(0, 0), (1, 0), (2, 0), (2, 1)]
    assert type(rep.blocks[1].branches[1].coeffs) is extreal._PendingVec

    rng = random.Random(6133)
    pruned = 0
    for _ in range(300):
        dim = rng.randint(1, 4)
        doc = [[[rng.choice(["0", "1", "2", "1/2", "3/2", "inf"]) for _ in range(dim)]
                for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(0, 5))]
        y = decode_vector([rng.choice(["0", "1", "1/3", "2", "inf"]) for _ in range(dim)], "$")
        twins = [[LinFun(decode_vector(v, "$")) for v in block] for block in doc]
        for first, call in ((False, minkowski), (True, lambda rep, y: rep.contains(y))):
            rep = decode_open_set({"blocks": doc}, "$")
            built.clear()
            call(rep, y)
            want = _expected_reads(twins, y, ONE if first else ZERO, first)
            assert read(rep) == want and len(built) == len(want)
            pruned += sum(map(len, doc)) - len(want)
    assert pruned >= 300



def test_a_spec_order_document_forms_only_the_generators_it_reads(monkeypatch, tmp_path):
    import json

    from conedual import extreal
    from conedual.cli import main

    built = []
    canonical_form = extreal._canonical_form

    def counted(*args, **kwargs):
        built.append(args)
        return canonical_form(*args, **kwargs)

    monkeypatch.setattr(extreal, "_canonical_form", counted)

    def run(payload):
        inp, out = tmp_path / "in.json", tmp_path / "out.json"
        inp.write_text(json.dumps(payload))
        built.clear()
        code = main(["spec-order", "--input", str(inp), "--output", str(out)])
        return code, json.loads(out.read_bytes()), len(built)

    rng = random.Random(4451)
    values = ["0", "1", "2", "1/2", "3/2", "5", "inf"]
    gens = [[rng.choice(values) for _ in range(8)] for _ in range(60)]
    # equal finite coordinates, inf over inf and finite entries under larger or infinite ones:
    # y and y' build their forms, and no generator does
    y = ["0", "3/2", "inf", "1", "2", "1/3", "0", "4"]
    y_prime = ["0", "3/2", "inf", "inf", "5/2", "1/2", "7", "4"]
    assert run({"c_gens": gens, "y": y, "y_prime": y_prime}) == (0, {"leq": True}, 2)
    # y exceeds y' at coordinate 4 alone, so generator k, the first positive there,
    # refutes the order, and the loop forms generators 0 to k
    y = ["1", "3/2", "2", "1", "3", "1/3", "0", "4"]
    y_prime = ["1", "3/2", "2", "1", "5/2", "1/3", "0", "4"]
    for k in (0, 17, 59):
        finite = ["0" if v == "inf" else v for v in gens[k]]
        refuted = [g[:4] + ["0"] + g[5:] for g in gens[:k]]
        refuted += [finite[:4] + ["1/2"] + finite[5:]] + gens[k + 1:]
        assert run({"c_gens": refuted, "y": y, "y_prime": y_prime}) == (
            0, {"leq": False}, 2 + k + 1), k

def test_dominated_by_max_examples():
    ok, lam = dominated_by_max(LinFun([1, 1]), SublinFun([[2, 0], [0, 2]]))
    assert ok and tuple(lam) == (F(1, 2), F(1, 2))
    ok, lam = dominated_by_max(LinFun([2, 0]), SublinFun([[2, 0]]))
    assert ok and tuple(lam) == (F(1),)
    ok, y = dominated_by_max(LinFun([2, 1]), SublinFun([[2, 0], [0, 2]]))
    assert not ok and y == ExtVec([F(1, 2), F(1, 2)])
    # f is infinite where every branch is finite, so 1 on those coordinates refutes it
    assert dominated_by_max(LinFun([INF, 0]), SublinFun([[2, 0]])) == (False, ExtVec([1, 1]))
    assert dominated_by_max(LinFun([INF, 1]), SublinFun([[2, 0], [0, 2]])) == (False, ExtVec([1, 1]))
    # phi is infinite off coordinate 1, where f = 1 <= 2, the second branch
    assert dominated_by_max(LinFun([INF, 1]), SublinFun([[INF, 0], [0, 2]])) == (True, ExtVec([0, 1]))
    # the LP's point (0, 1), where the infinite coefficient meets a zero
    assert dominated_by_max(LinFun([INF, 3]), SublinFun([[INF, 0], [0, 2]])) == (False, ExtVec([0, 1]))
    # every coordinate has an infinite branch: phi is infinite off the origin
    assert dominated_by_max(LinFun([5, 3]), SublinFun([[INF, 0], [0, INF]])) == (True, ExtVec([1, 0]))


def _branch_coords(phi):
    """R, the coordinates where every branch of phi is finite."""
    return [j for j in range(phi.dim) if all(h.coeffs[j].is_finite for h in phi.branches)]


def test_dominated_by_max_agrees_with_the_exact_order_oracle():
    rng = random.Random(23)
    for _ in range(300):
        dim = rng.randint(1, 3)
        f = _rand_linfun(rng, dim, inf_chance=6)
        phi = SublinFun([_rand_linfun(rng, dim, inf_chance=6) for _ in range(rng.randint(1, 3))])
        ok, cert = dominated_by_max(f, phi)
        assert ok == order_holds([f.coeffs], [h.coeffs for h in phi.branches])
        if ok:
            # the certificate is a simplex combination sitting above f on R
            assert sum(cert) == 1 and all(v >= 0 for v in cert)
            for j in _branch_coords(phi):
                mix = sum(l * h.coeffs[j].as_fraction() for l, h in zip(cert, phi.branches))
                assert f.coeffs[j] <= ExtReal(mix)
        else:
            # a refuting point
            assert phi.eval(cert) < f.eval(cert)


def test_leq_functional_on_a_clause_agrees_with_the_exact_order_oracle():
    rng = random.Random(31)
    for _ in range(300):
        dim = rng.randint(1, 3)
        clause = [_rand_linfun(rng, dim, inf_chance=6) for _ in range(rng.randint(1, 3))]
        branches = [_rand_linfun(rng, dim, inf_chance=6) for _ in range(rng.randint(1, 3))]
        phi, psi = SuperlinFun(clause), SublinFun(branches)
        ok, wit = leq_functional(phi, psi)
        assert ok == order_holds([g.coeffs for g in clause], [h.coeffs for h in branches])
        if not ok:
            assert psi.eval(wit) < phi.eval(wit)


def test_order_oracle_edge_cases():
    # every branch is infinite somewhere: max_k h_k is inf off the origin
    assert order_holds([[5, 3]], [[INF, 0], [0, INF]])
    # f is infinite on R = {0, 1}, so it exceeds phi inside the simplex
    assert not order_holds([[INF, 0]], [[2, 0]])
    # the member infinite on R drops out, and (1, 1) <= (2, 2) decides it
    assert order_holds([[INF, 0], [1, 1]], [[2, 2]])
    assert not order_holds([[2, 1]], [[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        order_holds([], [[1]])
    with pytest.raises(ValueError):
        order_holds([[1, 2]], [[1]])


def test_specialization_order_examples():
    gens = [LinFun([1, 0]), LinFun([1, 1])]
    assert specialization_leq(ExtVec([1, 1]), ExtVec([2, 0]), gens)
    assert not specialization_leq(ExtVec([2, 0]), ExtVec([1, 1]), gens)
    assert specialization_leq(ExtVec([0, 0]), ExtVec([2, 0]), gens)


def test_specialization_order_is_a_preorder():
    rng = random.Random(7)
    gens = [LinFun([1, 0]), LinFun([1, 1]), LinFun([0, 2])]
    pts = [_rand_point(rng, 2) for _ in range(12)]
    for y in pts:
        assert specialization_leq(y, y, gens)
    for a in pts:
        for b in pts:
            for c in pts:
                if specialization_leq(a, b, gens) and specialization_leq(b, c, gens):
                    assert specialization_leq(a, c, gens)


def test_specialization_order_respects_cone_combinations():
    # pairings against generators bound pairings against every nonnegative
    # combination of them
    rng = random.Random(29)
    gens = [_rand_linfun(rng, 3, 10) for _ in range(3)]
    for _ in range(40):
        y = _rand_point(rng, 3)
        y2 = _rand_point(rng, 3)
        if not specialization_leq(y, y2, gens):
            continue
        coeffs = [ExtReal(rng.randint(0, 4), rng.randint(1, 3)) for _ in gens]
        combined = [ZERO, ZERO, ZERO]
        for c, g in zip(coeffs, gens):
            for j in range(3):
                combined[j] = combined[j] + c * g.coeffs[j]
        mix = LinFun(combined)
        assert mix.eval(y) <= mix.eval(y2)


def test_projection_regression():
    gens = [LinFun([1, 0]), LinFun([1, 1])]
    proj = LinFun([0, 1])
    y, y2 = ExtVec([1, 1]), ExtVec([2, 0])
    assert specialization_leq(y, y2, gens)
    assert proj.eval(y) == ONE
    assert proj.eval(y2) == ZERO
    assert not proj.eval(y) <= proj.eval(y2)


def test_leq_functional_examples():
    ok, wit = leq_functional(LinFun([1, 0]), LinFun([2, 0]))
    assert ok and wit is None
    ok, wit = leq_functional(SuperlinFun([[2, 0], [0, 2]]), LinFun([1, 1]))
    assert ok
    # the exact verdict agrees with the matrix-game oracle
    assert order_holds([[2, 0], [0, 2]], [[1, 1]])
    ok, wit = leq_functional(LinFun([1, 1]), SuperlinFun([[2, 0], [0, 2]]))
    assert not ok
    assert ONE < LinFun([1, 1]).eval(wit) or not SuperlinFun([[2, 0], [0, 2]]).eval(wit) >= LinFun([1, 1]).eval(wit)
    # the witness refutes the comparison exactly
    assert not LinFun([1, 1]).eval(wit) <= SuperlinFun([[2, 0], [0, 2]]).eval(wit)


def test_leq_functional_mixed_reps():
    ok, wit = leq_functional(SublinFun([[1, 0], [0, 1]]), SublinFun([[1, 1]]))
    assert ok
    ok, wit = leq_functional(SublinFun([[3, 0]]), SublinFun([[2, 0], [0, 2]]))
    assert not ok and wit is not None
    ok, wit = leq_functional(LinFun([0, INF]), LinFun([0, INF]))
    assert ok
    ok, wit = leq_functional(LinFun([0, INF]), LinFun([0, 1]))
    assert not ok


def test_leq_functional_refuses_functionals_of_two_dimensions():
    with pytest.raises(DimensionMismatch, match="^1 versus 2$"):
        leq_functional(LinFun([1]), SublinFun([[1, 2]]))


def test_leq_functional_refutations_carry_valid_witnesses():
    rng = random.Random(41)
    for _ in range(50):
        dim = rng.randint(1, 3)
        kinds = [LinFun, SublinFun, SuperlinFun]
        def make(kind):
            if kind is LinFun:
                return _rand_linfun(rng, dim, 10)
            return kind([_rand_linfun(rng, dim, 10) for _ in range(rng.randint(1, 3))])
        phi = make(kinds[rng.randrange(3)])
        psi = make(kinds[rng.randrange(3)])
        ok, wit = leq_functional(phi, psi)
        if not ok:
            assert not phi.eval(wit) <= psi.eval(wit)


def test_leq_functional_refutes_a_near_miss():
    # min(13 y1, 11 y2) peaks at 143 on y1 + y2 = 24, just above psi's 24 c
    c = ExtReal(F(143, 24) - F(1, 1000))
    phi = SuperlinFun([[13, 0], [0, 11]])
    psi = LinFun([c, c])
    ok, wit = leq_functional(phi, psi)
    assert not ok
    assert psi.eval(wit) < phi.eval(wit)


def test_leq_functional_infinite_psi_everywhere():
    # every coordinate has a branch of psi at infinity: nothing is left to refute
    psi = SublinFun([[INF, 0], [0, INF]])
    assert leq_functional(LinFun([7, 7]), psi) == (True, None)
    assert leq_functional(SuperlinFun([[INF, 1], [2, INF]]), psi) == (True, None)


def test_leq_functional_all_phi_branches_infinite_on_the_rest():
    # psi is infinite on coordinate 2; both branches of phi are infinite on
    # {0, 1}, so the indicator of {0, 1} refutes the order
    phi = SuperlinFun([[INF, 0, 1], [0, INF, 0]])
    psi = SublinFun([[0, 0, INF], [5, 5, 0]])
    ok, wit = leq_functional(phi, psi)
    assert not ok and wit == ExtVec([1, 1, 0])
    assert psi.eval(wit) < phi.eval(wit)


def test_leq_functional_margin_lp_on_the_finite_rest():
    # The branch (inf, 0) drops out; the LP maximises 2 y2 at y = (0, 1),
    # where (inf, 0) vanishes, so the witness is shifted by 2/3 = t / (1 + 2).
    phi = SuperlinFun([[INF, 0], [1, 3]])
    psi = LinFun([1, 1])
    ok, wit = leq_functional(phi, psi)
    assert not ok and wit == ExtVec([F(2, 3), F(5, 3)])
    assert psi.eval(wit) < phi.eval(wit)
    # psi infinite on coordinate 1 leaves y1 <= max(2 y1, 0) on the rest
    assert leq_functional(LinFun([1, INF]), SublinFun([[2, 0], [0, INF]])) == (True, None)


def test_margin_scales_a_larger_dual_onto_the_simplex(monkeypatch):
    # y <= max(2 y, 3 y) on y >= 0: the optimum is y = t = 0, where any dual
    # with sum alpha = sum lambda >= 1 is optimal; the rows are sum y <= 1,
    # the branches 2 y <= u and 3 y <= u, then the member u + t <= y, and the
    # dual (0, 1, 1, 2) has sum alpha = sum lambda = 2, so the weights are
    # divided by 2
    from conedual import functionals, lp

    def solve(problem):
        res = lp.LPOptimal([0, 0, 0, 0], 0, [0, 1, 1, 2], 1)
        assert lp._verify(problem, res)
        return res

    monkeypatch.setattr(functionals, "solve_lp", solve)
    value, _, a, lam = _margin([ExtVec([1])], [ExtVec([2]), ExtVec([3])])
    assert value == 0 and tuple(a) == (F(1),) and tuple(lam) == (F(1, 2), F(1, 2))


def test_unit_level_set_laws_pointwise():
    rng = random.Random(53)
    for _ in range(40):
        dim = rng.randint(1, 4)
        branches = [_rand_linfun(rng, dim, 12) for _ in range(rng.randint(1, 3))]
        low = SuperlinFun(branches)
        high = SublinFun(branches)
        for _ in range(10):
            y = _rand_point(rng, dim)
            assert member_u(low, y) == all(member_u(b, y) for b in branches)
            assert member_u(high, y) == any(member_u(b, y) for b in branches)


def test_order_matches_level_set_inclusion_on_samples():
    # phi <= psi exactly when the strict side of phi sits inside psi's
    rng = random.Random(59)
    for _ in range(30):
        dim = rng.randint(1, 3)
        phi = _rand_linfun(rng, dim)
        bump = LinFun([ExtReal(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(dim)])
        psi = LinFun([a + b for a, b in zip(phi.coeffs, bump.coeffs)])
        ok, _ = leq_functional(phi, psi)
        assert ok
        for _ in range(8):
            y = _rand_point(rng, dim)
            if member_u(phi, y):
                assert member_u(psi, y)


def test_closed_side_is_convex_for_max_reps():
    rng = random.Random(61)
    ts = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    for _ in range(25):
        dim = rng.randint(1, 3)
        phi = SublinFun([_rand_linfun(rng, dim, 12) for _ in range(rng.randint(1, 3))])
        inside = [y for y in (_rand_point(rng, dim) for _ in range(25)) if member_a(phi, y)]
        for a in inside[:4]:
            for b in inside[:4]:
                for t in ts:
                    combo = a.scale(ExtReal(t)) + b.scale(ExtReal(1 - t))
                    assert member_a(phi, combo)


def test_open_side_is_convex_for_min_reps():
    rng = random.Random(67)
    ts = [F(0), F(1, 2), F(1)]
    for _ in range(25):
        dim = rng.randint(1, 3)
        psi = SuperlinFun([_rand_linfun(rng, dim, 12) for _ in range(rng.randint(1, 3))])
        inside = [y for y in (_rand_point(rng, dim) for _ in range(25)) if member_u(psi, y)]
        for a in inside[:4]:
            for b in inside[:4]:
                for t in ts:
                    combo = a.scale(ExtReal(t)) + b.scale(ExtReal(1 - t))
                    assert member_u(psi, combo)


def test_homogeneity_including_zero_and_infinite_points():
    rng = random.Random(71)
    for _ in range(30):
        dim = rng.randint(1, 4)
        funs = [
            _rand_linfun(rng, dim, 10),
            SublinFun([_rand_linfun(rng, dim, 10) for _ in range(2)]),
            SuperlinFun([_rand_linfun(rng, dim, 10) for _ in range(2)]),
        ]
        y = _rand_point(rng, dim, inf_chance=5)
        for f in funs:
            for r in (ZERO, ExtReal(1, 2), ExtReal(2), ExtReal(7, 3)):
                assert f.eval(y.scale(r)) == r * f.eval(y)


# The integer evaluation kernel against the ExtReal fold it replaced.


def _fold_eval(f, y):
    """LinFun.eval as a fold of ExtReal products and sums: the reference."""
    y = y if isinstance(y, ExtVec) else ExtVec(y)
    if y.dim != f.dim:
        raise DimensionMismatch(f"{f.dim} versus {y.dim}")
    total = ZERO
    for c, v in zip(f.coeffs, y):
        if c.num and v.num:
            # zero factors contribute nothing, including 0 * inf
            total = total + c * v
    return total


def _fold_max(values):
    out = values[0]
    for v in values[1:]:
        if out < v:
            out = v
    return out


def _fold_min(values):
    out = values[0]
    for v in values[1:]:
        if v < out:
            out = v
    return out


def _kernel_entry(rng):
    """Zeros, infinities, and values given in non-reduced or foreign forms."""
    kind = rng.randrange(8)
    if kind == 0:
        return ZERO if rng.randrange(2) else ExtReal(0, rng.randint(1, 9))
    if kind == 1:
        return INF
    k = rng.randint(2, 6)
    num, den = rng.randint(0, 40), rng.randint(1, 12)
    if kind == 2:
        return ExtReal(k * num, k * den)
    if kind == 3:
        return F(num, den)
    if kind == 4:
        return rng.randint(0, 9)
    if kind == 5:
        return parse_extreal(f"{k * num}/{k * den}")
    if kind == 6:
        return ExtReal(rng.randint(0, 2**70), rng.randint(1, 2**40))
    return ExtReal(num, den)


def _kernel_vector(rng, dim):
    shape = rng.randrange(10)
    if shape == 0:
        return [INF] * dim
    if shape == 1:
        return [ZERO] * dim
    return [_kernel_entry(rng) for _ in range(dim)]


def _same(got, want):
    return type(got) is ExtReal and (got.num, got.den) == (want.num, want.den)


def test_integer_kernel_matches_extreal_fold():
    rng = random.Random(41)
    for _ in range(400):
        dim = rng.randint(1, 6)
        funs = [LinFun(_kernel_vector(rng, dim)) for _ in range(rng.randint(1, 4))]
        raw = _kernel_vector(rng, dim)
        # a shared point (its integer form is cached after the first pairing)
        # and a fresh coercion of the same entries must agree
        for y in (ExtVec(raw), ExtVec(raw), raw):
            for f in funs:
                assert _same(f.eval(y), _fold_eval(f, y))
            folds = [_fold_eval(f, y) for f in funs]
            assert _same(SublinFun(funs).eval(y), _fold_max(folds))
            assert _same(SuperlinFun(funs).eval(y), _fold_min(folds))
        point = ExtVec(raw)
        # vectors built from a cached one carry their own form
        for derived in (point.scale(ExtReal(3, 2)), point + point, point.scale(ZERO)):
            for f in funs:
                assert _same(f.eval(derived), _fold_eval(f, derived))
        with pytest.raises(DimensionMismatch):
            funs[0].eval(ExtVec(raw + [ONE]))


def test_integer_kernel_zero_times_infinity():
    assert _same(LinFun([INF, 0]).eval(ExtVec([0, INF])), ZERO)
    assert _same(LinFun([INF, 1]).eval(ExtVec([0, ExtReal(2, 4)])), ExtReal(1, 2))
    assert LinFun([INF, 0]).eval(ExtVec([ExtReal(1, 9), 0])) == INF
    assert LinFun([INF, INF]).eval(ExtVec([INF, INF])) == INF
    assert _same(LinFun([INF, INF]).eval(ExtVec([0, 0])), ZERO)


def test_minkowski_and_specialization_match_extreal_fold():
    rng = random.Random(43)
    for _ in range(200):
        dim = rng.randint(1, 5)
        blocks = [
            [LinFun(_kernel_vector(rng, dim)) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(0, 3))
        ]
        y = ExtVec(_kernel_vector(rng, dim))
        want = ZERO
        for block in blocks:
            v = _fold_min([_fold_eval(f, y) for f in block])
            if want < v:
                want = v
        assert _same(minkowski(OpenSetRep(blocks), y), want)
        gens = [f for block in blocks for f in block] or [LinFun([1] * dim)]
        y2 = ExtVec(_kernel_vector(rng, dim))
        want_leq = all(_fold_eval(x, y) <= _fold_eval(x, y2) for x in gens)
        assert specialization_leq(y, y2, gens) == want_leq


def _recursive_leq(phi, psi):
    """``leq_functional`` as it was before it read phi as min-clauses and psi
    as max-sets: recursion over the branches and a coordinatewise path for
    two linear maps.  The reference for the verdicts."""
    from conedual.functionals import _margin

    if isinstance(phi, SublinFun):
        for b in phi.branches:
            ok, wit = _recursive_leq(b, psi)
            if not ok:
                return False, wit
        return True, None
    if isinstance(psi, SuperlinFun):
        for g in psi.branches:
            ok, wit = _recursive_leq(phi, g)
            if not ok:
                return False, wit
        return True, None
    dim = phi.dim
    if isinstance(phi, LinFun) and isinstance(psi, LinFun):
        for j in range(dim):
            if not phi.coeffs[j] <= psi.coeffs[j]:
                return False, ExtVec([ONE if i == j else ZERO for i in range(dim)])
        return True, None
    gs = (phi,) if isinstance(phi, LinFun) else phi.branches
    hs = (psi,) if isinstance(psi, LinFun) else psi.branches
    rest = [j for j in range(dim) if all(h.coeffs[j].is_finite for h in hs)]
    if not rest:
        return True, None
    gvecs = [
        ExtVec([g.coeffs[j] for j in rest])
        for g in gs
        if all(g.coeffs[j].is_finite for j in rest)
    ]
    hvecs = [ExtVec([h.coeffs[j] for j in rest]) for h in hs]
    y, eps = [0] * len(rest), 1
    if gvecs:
        value, y, _, _ = _margin(gvecs, hvecs)
        if value <= 0:
            return True, None
        eps = value / (1 + max(sum(h).as_fraction() for h in hvecs))
    full = [ZERO] * dim
    for j, v in zip(rest, y):
        full[j] = ExtReal(v + eps)
    witness = ExtVec(full)
    assert psi.eval(witness) < phi.eval(witness)
    return False, witness


def test_leq_functional_verdicts_match_the_recursive_reference():
    rng = random.Random(1409)
    kinds = [LinFun, SublinFun, SuperlinFun]
    seen = set()
    for _ in range(300):
        dim = rng.randint(1, 3)

        def make(kind):
            if kind is LinFun:
                return _rand_linfun(rng, dim, 6)
            return kind([_rand_linfun(rng, dim, 6) for _ in range(rng.randint(1, 3))])

        phi_kind, psi_kind = rng.choice(kinds), rng.choice(kinds)
        phi, psi = make(phi_kind), make(psi_kind)
        ok, wit = leq_functional(phi, psi)
        assert ok == _recursive_leq(phi, psi)[0], (phi, psi)
        if ok:
            assert wit is None
        else:
            assert psi.eval(wit) < phi.eval(wit)
        seen.add((phi_kind, psi_kind, ok))
    # every pairing of representations, each with both verdicts
    assert len(seen) == 18, sorted((a.__name__, b.__name__, ok) for a, b, ok in seen)


def _on_finite_rest(a, gs, lam, hs):
    """sum_i a_i g_i <= sum_k lam_k h_k on every coordinate where each h_k is
    finite, by ``ExtReal`` arithmetic (0 * inf = 0), with the left side finite."""
    for j in range(hs[0].dim):
        if all(h.coeffs[j].is_finite for h in hs):
            left = ZERO
            for w, g in zip(a, gs):
                left = left + ExtReal(w) * g.coeffs[j]
            right = ZERO
            for w, h in zip(lam, hs):
                right = right + ExtReal(w) * h.coeffs[j]
            if not (left.is_finite and left <= right):
                return False
    return True


def test_interpolate_and_dominates_decide_the_extended_orthant():
    # clauses, targets and f with about one entry in five infinite
    rng = random.Random(2718)
    seen = set()
    inf_points = 0

    def has_inf(*funs):
        return any(f.coeffs._form[2] for f in funs)

    for _ in range(240):
        dim = rng.randint(1, 4)
        gs = [_rand_linfun(rng, dim, 5) for _ in range(rng.randint(1, 3))]
        phi = SublinFun([_rand_linfun(rng, dim, 5) for _ in range(rng.randint(1, 3))])
        low = SuperlinFun(gs)
        ok, y = leq_functional(low, phi)
        assert ok == _recursive_leq(low, phi)[0], (gs, phi)
        seen.add(("clause", ok, has_inf(*gs, *phi.branches)))
        if not ok:
            assert phi.eval(y) < low.eval(y)
        else:
            assert y is None
            (w,) = clause_witnesses([list(range(len(gs)))], gs, phi)
            mix = [ZERO] * dim
            for a, g in zip(w.weights, gs):
                mix = [m + ExtReal(a) * c for m, c in zip(mix, g.coeffs)]
            assert w.fun == LinFun(mix)
            assert sum(w.weights) == 1 and sum(w.certificate) == 1
            rest = [j for j in range(dim) if all(h.coeffs[j].is_finite for h in phi.branches)]
            for a, g in zip(w.weights, gs):
                if any(g.coeffs[j].is_infinite for j in rest):
                    assert a == 0
            assert leq_functional(w.fun, phi) == (True, None)
            assert _on_finite_rest(w.weights, gs, w.certificate, phi.branches)
            for _ in range(20):
                p = _rand_point(rng, dim, inf_chance=3)
                inf_points += any(e.is_infinite for e in p)
                assert low.eval(p) <= w.fun.eval(p) <= phi.eval(p)
        f = gs[0]
        ok, cert = dominated_by_max(f, phi)
        assert ok == _recursive_leq(f, phi)[0], (f, phi)
        seen.add(("dominates", ok, has_inf(f, *phi.branches)))
        if ok:
            assert sum(cert) == 1 and _on_finite_rest((F(1),), [f], cert, phi.branches)
        else:
            assert phi.eval(cert) < f.eval(cert)
    # both verdicts, with and without infinite coefficients, for both callers
    assert len(seen) == 8, sorted(seen)
    assert inf_points > 100


def test_branch_construction_is_the_same_from_vectors_functionals_and_entries():
    rng = random.Random(29)
    for _ in range(200):
        dim = rng.randint(1, 5)
        rows = [[rng.choice([0, 1, 3, INF, ExtReal(2, 3)]) for _ in range(dim)]
                for _ in range(rng.randint(1, 4))]
        vecs = [ExtVec(r) for r in rows]
        for cls in (SublinFun, SuperlinFun):
            mixed = [(v, LinFun(r), r)[i % 3] for i, (v, r) in enumerate(zip(vecs, rows))]
            made = [cls(rows), cls(vecs), cls([LinFun(r) for r in rows]), cls(mixed)]
            for fun in made:
                assert fun == made[0] and hash(fun) == hash(made[0])
                assert type(fun.branches) is tuple
                assert all(type(b) is LinFun for b in fun.branches)
                assert [b.coeffs for b in fun.branches] == vecs
        # an ExtVec goes into its LinFun as it is; a LinFun is kept
        f = LinFun(rows[0])
        assert SublinFun(vecs).branches[0].coeffs is vecs[0]
        assert SuperlinFun([f]).branches[0] is f
        blocks = [vecs, [LinFun(r) for r in rows], rows]
        rep = OpenSetRep(blocks)
        assert rep.blocks == (SuperlinFun(rows),) * 3 and rep.dim == dim
        y = ExtVec([rng.choice([0, 1, 2, INF]) for _ in range(dim)])
        assert minkowski(rep, y) == _least(blocks[1], y)


@pytest.mark.parametrize("make, error, message", [
    (lambda: SublinFun([]), EmptyList, "at least one branch is required"),
    (lambda: SuperlinFun(iter([])), EmptyList, "at least one branch is required"),
    (lambda: SublinFun([ExtVec([1]), [1, 2]]), DimensionMismatch, "branches disagree on dimension"),
    (lambda: SuperlinFun([LinFun([1, 2]), ExtVec([1])]), DimensionMismatch,
     "branches disagree on dimension"),
    (lambda: SublinFun([[1, 2], [1, 2], [3]]), DimensionMismatch, "branches disagree on dimension"),
    # every branch is built before the dimensions are compared
    (lambda: SublinFun([[1, 2], [1], [-1]]), ValueError,
     "negative values are outside the extended nonnegative reals"),
    (lambda: OpenSetRep([[ExtVec([1])], []]), EmptyList, "at least one branch is required"),
    (lambda: OpenSetRep([[ExtVec([1])], [ExtVec([1]), ExtVec([1, 2])]]), DimensionMismatch,
     "branches disagree on dimension"),
    (lambda: OpenSetRep([[ExtVec([1])], [LinFun([1]), [1]], [ExtVec([1, 2])]]), DimensionMismatch,
     "blocks disagree on dimension"),
])
def test_branch_construction_errors(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == message
