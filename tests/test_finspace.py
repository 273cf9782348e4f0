import random
from itertools import compress, permutations

import pytest

from conedual import (
    INF,
    ZERO,
    ExtReal,
    FinitePoset,
    LscFun,
    all_opens,
    is_lsc,
    posets_up_to_iso,
    step,
    to_steps,
    validate_poset,
)
from conedual.errors import (
    EmptyList,
    NotAntisymmetric,
    NotLSC,
    NotReflexive,
    NotTransitive,
    NotUpSet,
    PosetMismatch,
    TooLarge,
)
from conedual.finspace import _bits
from conedual.jsonio import decode_vector

SIGMA = FinitePoset.from_pairs(2, [(0, 1)])
DISCRETE2 = FinitePoset.from_pairs(2, [])
CHAIN3 = FinitePoset.from_pairs(3, [(0, 1), (1, 2), (0, 2)])


def test_validate_poset_examples():
    chain = validate_poset([[True, True], [False, True]])
    assert chain.leq(0, 1) and not chain.leq(1, 0)
    two = validate_poset([[True, False], [False, True]])
    assert not two.leq(0, 1) and not two.leq(1, 0)


def test_validate_poset_failures_carry_witnesses():
    with pytest.raises(NotReflexive) as info:
        validate_poset([[False]])
    assert info.value.witness == 0
    with pytest.raises(NotAntisymmetric) as info:
        validate_poset([[True, True], [True, True]])
    assert info.value.witness == (0, 1)
    with pytest.raises(NotTransitive) as info:
        FinitePoset.from_pairs(3, [(0, 1), (1, 2)])
    assert info.value.witness == (0, 1, 2)
    with pytest.raises(ValueError):
        validate_poset([[True, True], [False]])


def test_is_lsc_examples():
    assert is_lsc([1, 2], SIGMA) == (True, None)
    assert is_lsc([2, 1], SIGMA) == (False, (0, 1))
    assert is_lsc([5, 5, 5], CHAIN3) == (True, None)
    assert is_lsc([0, INF], SIGMA) == (True, None)


def test_is_lsc_on_a_vector_matches_is_lsc_on_its_entries():
    # an ExtVec is checked on its integer form, with no entries built; the
    # verdict and the first violating pair must match the entrywise check
    rng = random.Random(11)
    verdicts = set()
    for n in range(1, 5):
        for poset in posets_up_to_iso(n):
            for _ in range(40):
                vals = [
                    INF if rng.randrange(5) == 0 else ExtReal(rng.randint(0, 6), rng.randint(1, 3))
                    for _ in range(n)
                ]
                vec = decode_vector([str(v) for v in vals], "$")
                got = is_lsc(vec, poset)
                assert got == is_lsc(vals, poset) and vec._entries is None
                verdicts.add(got[0])
    assert verdicts == {True, False}
    with pytest.raises(ValueError, match="expected 3 values, got 2"):
        is_lsc(decode_vector(["1", "2"], "$"), CHAIN3)


def test_is_lsc_matches_open_preimage_definition():
    # {f > r} must be an up-set for every threshold among f's values
    rng = random.Random(2)
    for n in range(1, 5):
        for poset in posets_up_to_iso(n):
            for _ in range(20):
                vals = [ExtReal(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(n)]
                monotone, _ = is_lsc(vals, poset)
                thresholds = sorted({v for v in vals if v.is_finite})
                opens_ok = True
                for r in thresholds:
                    mask = sum(1 << i for i in range(n) if r < vals[i])
                    if not poset.is_up_closed(mask):
                        opens_ok = False
                assert monotone == opens_ok


def test_all_opens_examples():
    assert all_opens(SIGMA) == [0b00, 0b10, 0b11]
    assert all_opens(DISCRETE2) == [0b00, 0b01, 0b10, 0b11]
    anti = FinitePoset.from_pairs(4, [])
    assert len(all_opens(anti)) == 16
    with pytest.raises(TooLarge):
        all_opens(FinitePoset.from_pairs(13, []))


def test_opens_are_up_sets():
    for n in range(1, 5):
        for poset in posets_up_to_iso(n):
            for mask in all_opens(poset):
                assert poset.is_up_closed(mask)


def test_step_examples():
    f = step(SIGMA, 2, 0b10)
    assert f.values == (ZERO, ExtReal(2))
    with pytest.raises(NotUpSet):
        step(SIGMA, 1, 0b01)


def test_to_steps_round_trip():
    f = LscFun(SIGMA, [0, 2])
    assert to_steps(f) == [(ExtReal(2), 0b10)]
    assert to_steps(LscFun(SIGMA, [0, 0])) == []
    rng = random.Random(8)
    for n in range(1, 5):
        for poset in posets_up_to_iso(n):
            for _ in range(10):
                raw = [ExtReal(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(n)]
                vals = [
                    max((raw[z] for z in range(n) if poset.leq(z, x)), default=raw[x])
                    for x in range(n)
                ]
                f = LscFun(poset, vals)
                pieces = [step(poset, r, mask) for r, mask in to_steps(f)]
                if pieces:
                    assert LscFun.sup(pieces) == f
                else:
                    assert all(v == ZERO for v in f.values)


def test_cone_operations():
    a = LscFun(SIGMA, [1, 2])
    b = LscFun(SIGMA, [0, 1])
    assert (a + b).values == (ExtReal(1), ExtReal(3))
    assert LscFun(SIGMA, [INF, INF]).scale(0).values == (ZERO, ZERO)
    assert LscFun.sup([LscFun(SIGMA, [0, 1]), LscFun(SIGMA, [1, 1])]).values == (
        ExtReal(1),
        ExtReal(1),
    )
    assert LscFun.inf([a, b]).values == (ZERO, ExtReal(1))
    with pytest.raises(PosetMismatch):
        a + LscFun(DISCRETE2, [1, 2])
    with pytest.raises(EmptyList):
        LscFun.sup([])


def test_cone_operations_preserve_monotonicity():
    rng = random.Random(12)
    for n in range(1, 5):
        for poset in posets_up_to_iso(n):
            funs = []
            for _ in range(6):
                raw = [ExtReal(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
                vals = [
                    max((raw[z] for z in range(n) if poset.leq(z, x)), default=raw[x])
                    for x in range(n)
                ]
                funs.append(LscFun(poset, vals))
            # construction inside LscFun re-validates monotonicity
            total = funs[0]
            for f in funs[1:]:
                total = total + f
            LscFun.sup(funs)
            LscFun.inf(funs)
            for f in funs:
                f.scale(ExtReal(3, 2))
                f.scale(INF)


def test_lscfun_rejects_non_monotone_tables():
    with pytest.raises(NotLSC) as info:
        LscFun(SIGMA, [2, 1])
    assert info.value.witness == (0, 1)


def test_posets_up_to_iso_counts():
    # unlabeled poset counts for sizes one through five
    assert [len(posets_up_to_iso(n)) for n in range(1, 6)] == [1, 2, 5, 16, 63]
    with pytest.raises(TooLarge):
        posets_up_to_iso(6)


def _set_transitive(n, rel):
    adj = [set() for _ in range(n)]
    for i, j in rel:
        adj[i].add(j)
    return all(k in adj[i] for i in range(n) for j in adj[i] for k in adj[j])


def _enumerate_with_set_transitivity(n):
    """The enumeration that filtered candidates with its own set-based
    transitivity test before ``from_pairs`` decided it: the reference."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = {}
    for bits in range(1 << len(pairs)):
        rel = [pairs[t] for t in range(len(pairs)) if bits >> t & 1]
        if not _set_transitive(n, rel):
            continue
        key = min(
            tuple(sorted((perm[i], perm[j]) for i, j in rel)) for perm in permutations(range(n))
        )
        found.setdefault(key, rel)
    return [FinitePoset.from_pairs(n, found[key]) for key in sorted(found)]


def test_posets_up_to_iso_match_the_set_transitivity_enumeration():
    for n in range(1, 6):
        assert posets_up_to_iso(n) == _enumerate_with_set_transitivity(n)


def test_posets_are_topologically_labelled_and_deterministic():
    for n in range(1, 5):
        once = posets_up_to_iso(n)
        again = posets_up_to_iso(n)
        assert once == again
        for poset in once:
            for i in range(n):
                for j in range(n):
                    if poset.leq(i, j):
                        assert i <= j


def _triple_loop_validate(table):
    """The cubic validation that bitmask rows replaced: the reference."""
    rows = [tuple(bool(v) for v in row) for row in table]
    n = len(rows)
    for i in range(n):
        if not rows[i][i]:
            raise NotReflexive(i)
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] and rows[j][i]:
                raise NotAntisymmetric(i, j)
    for i in range(n):
        for j in range(n):
            if rows[i][j]:
                for k in range(n):
                    if rows[j][k] and not rows[i][k]:
                        raise NotTransitive(i, j, k)


def _near_poset(rng, n):
    """A random order (transitively closed) with a few random defects."""
    perm = list(range(n))
    rng.shuffle(perm)
    table = [[i == j for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.3:
                table[perm[a]][perm[b]] = True
    for k in range(n):
        for i in range(n):
            if table[i][k]:
                for j in range(n):
                    if table[k][j]:
                        table[i][j] = True
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        i, j = rng.randrange(n), rng.randrange(n)
        table[i][j] = not table[i][j]
    return table


def test_bitmask_validation_matches_triple_loop():
    rng = random.Random(13)
    outcomes = set()
    for _ in range(400):
        table = _near_poset(rng, rng.randint(1, 9))
        try:
            _triple_loop_validate(table)
            expected = None
        except (NotReflexive, NotAntisymmetric, NotTransitive) as exc:
            expected = (type(exc), exc.witness)
        try:
            poset = validate_poset(table)
            got = None
        except (NotReflexive, NotAntisymmetric, NotTransitive) as exc:
            got = (type(exc), exc.witness)
        assert got == expected
        outcomes.add(None if got is None else got[0])
        if got is None:
            n = len(table)
            assert all(poset.leq(i, j) == table[i][j] for i in range(n) for j in range(n))
            assert all(
                poset.up_mask(i) == sum(1 << j for j in range(n) if table[i][j])
                for i in range(n)
            )
    assert outcomes == {None, NotReflexive, NotAntisymmetric, NotTransitive}


def test_posets_hash_by_their_order():
    a = FinitePoset.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    b = FinitePoset.from_pairs(3, [(1, 2), (0, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, DISCRETE2, SIGMA}) == 3
    assert hash(LscFun(SIGMA, [ZERO, INF])) == hash(LscFun(SIGMA, [ZERO, INF]))


class _TablePoset:
    """The table-based poset that up-set masks replaced: the reference.

    It kept the order twice, as a bool table next to the masks, and built
    the table for ``from_pairs`` as well.
    """

    def __init__(self, table):
        rows = tuple(tuple(map(bool, row)) for row in table)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("relation table must be square and nonempty")
        up = tuple(sum(1 << j for j in compress(range(n), row)) for row in rows)
        for i in range(n):
            if not up[i] >> i & 1:
                raise NotReflexive(i)
        for i in range(n):
            for j in _bits(up[i] & ~(1 << i)):
                if up[j] >> i & 1:
                    raise NotAntisymmetric(i, j)
        for i in range(n):
            for j in _bits(up[i]):
                missing = up[j] & ~up[i]
                if missing:
                    raise NotTransitive(i, j, (missing & -missing).bit_length() - 1)
        self.n = n
        self._leq = rows
        self._up = up

    @classmethod
    def from_pairs(cls, size, pairs, add_reflexive=True):
        table = [[False] * size for _ in range(size)]
        if add_reflexive:
            for i in range(size):
                table[i][i] = True
        for i, j in pairs:
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"pair ({i}, {j}) outside 0..{size - 1}")
            table[i][j] = True
        return cls(table)

    def leq(self, i, j):
        return self._leq[i][j]

    def pairs(self):
        return [(i, j) for i in range(self.n) for j in range(self.n) if self._leq[i][j]]

    def __eq__(self, other):
        return self._leq == other._leq

    def __hash__(self):
        return hash(self._leq)

    def __repr__(self):
        rel = [(i, j) for i, j in self.pairs() if i != j]
        return f"FinitePoset(n={self.n}, leq={rel})"


def _outcome(build):
    try:
        return build(), None
    except (NotReflexive, NotAntisymmetric, NotTransitive) as exc:
        return None, (type(exc), exc.witness)
    except ValueError as exc:
        return None, (ValueError, str(exc))


def test_up_set_masks_match_the_table_poset():
    rng = random.Random(29)
    built, errors = [], set()
    for _ in range(500):
        n = rng.randint(1, 8)
        table = _near_poset(rng, n)
        reflexive = rng.random() < 0.8
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if table[i][j] and (i != j or not reflexive)]
        rng.shuffle(pairs)
        size = n
        if rng.random() < 0.05:
            size = rng.choice((0, -1, n - 1))  # pairs outside, or no elements
        cases = [
            (lambda: FinitePoset(table), lambda: _TablePoset(table)),
            (lambda: FinitePoset.from_pairs(size, pairs, reflexive),
             lambda: _TablePoset.from_pairs(size, pairs, reflexive)),
        ]
        for new, old in cases:
            got, got_err = _outcome(new)
            want, want_err = _outcome(old)
            assert got_err == want_err
            errors.add(None if got_err is None else got_err[0])
            if got is None:
                continue
            assert got.n == want.n
            assert all(got.leq(i, j) is want.leq(i, j)
                       for i in range(got.n) for j in range(got.n))
            assert got.pairs() == want.pairs()
            assert repr(got) == repr(want)
            built.append((got, want))
    assert errors == {None, NotReflexive, NotAntisymmetric, NotTransitive, ValueError}
    sample = built[::7]
    for a, a_old in sample:
        for b, b_old in sample:
            assert (a == b) == (a_old == b_old)
            assert (hash(a) == hash(b)) == (hash(a_old) == hash(b_old))
    assert any(a == b and a is not b for a, _ in sample for b, _ in sample)
