import random
from itertools import compress, permutations

import pytest

from conedual import (
    INF,
    ZERO,
    ExtReal,
    ExtVec,
    FinitePoset,
    LscFun,
    all_opens,
    is_lsc,
    posets_up_to_iso,
)
from conedual.errors import (
    EmptyList,
    NotAntisymmetric,
    NotLSC,
    NotTransitive,
    PosetMismatch,
    TooLarge,
)
from conedual.finspace import _bits
from conedual.jsonio import decode_poset, decode_vector

SIGMA = FinitePoset(2, [(0, 1)])
DISCRETE2 = FinitePoset(2, [])
CHAIN3 = FinitePoset(3, [(0, 1), (1, 2), (0, 2)])


def test_validate_poset_examples():
    chain = FinitePoset(2, [(0, 1)])
    assert chain.leq(0, 1) and not chain.leq(1, 0)
    two = FinitePoset(2, [])
    assert not two.leq(0, 1) and not two.leq(1, 0)
    # the order is the reflexive closure, so listing (i, i) changes nothing
    assert FinitePoset(2, [(1, 1), (0, 1), (0, 0)]) == chain


def test_validate_poset_failures_carry_witnesses():
    with pytest.raises(NotAntisymmetric) as info:
        FinitePoset(2, [(0, 1), (1, 0)])
    assert info.value.witness == (0, 1)
    with pytest.raises(NotTransitive) as info:
        FinitePoset(3, [(0, 1), (1, 2)])
    assert info.value.witness == (0, 1, 2)
    with pytest.raises(ValueError, match=r"pair \(0, 2\) outside 0\.\.1"):
        FinitePoset(2, [(0, 2)])
    with pytest.raises(ValueError):
        FinitePoset(0, [])


def test_poset_refuses_a_bool_size_or_index():
    # a bool is not an int here, as everywhere else in the package
    for size, pairs in ((True, []), (2, [(0, True)]), (2, [(False, 1)]), (2.0, [])):
        with pytest.raises(TypeError):
            FinitePoset(size, pairs)


def test_every_poset_is_built_through_init(monkeypatch):
    # the traced benchmark spans FinitePoset.__init__, so a constructor that
    # skips it would drop posets from the finspace counts without a failure
    made = []
    init = FinitePoset.__init__

    def counted(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(FinitePoset, "__init__", counted)
    built = posets_up_to_iso(4) + [decode_poset({"size": 3, "leq": [[0, 1], [1, 2], [0, 2]]}, "$")]
    assert len(built) == 17
    assert all(any(p is q for q in made) for p in built)


def test_is_lsc_examples():
    assert is_lsc([1, 2], SIGMA) == (True, None)
    assert is_lsc([2, 1], SIGMA) == (False, (0, 1))
    assert is_lsc([5, 5, 5], CHAIN3) == (True, None)
    assert is_lsc([0, INF], SIGMA) == (True, None)
    assert is_lsc((INF, 2), SIGMA) == is_lsc(ExtVec([INF, 2]), SIGMA) == (False, (0, 1))


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
    anti = FinitePoset(4, [])
    assert len(all_opens(anti)) == 16
    with pytest.raises(TooLarge, match="^open-set enumeration is capped at 12 elements$"):
        all_opens(FinitePoset(13, []))


def _scan_opens(poset):
    """Every mask below 2^n that is up-closed: the reference enumeration."""
    return [mask for mask in range(1 << poset.n) if poset.is_up_closed(mask)]


def _random_poset(rng, n):
    """The transitive closure of random pairs i < j, under a random relabelling,
    so that labels need not follow the order."""
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.randrange(4) == 0:
                up[i] |= up[j]
    label = list(range(n))
    rng.shuffle(label)
    return FinitePoset(n, [(label[i], label[j]) for i in range(n) for j in _bits(up[i])])


def test_all_opens_matches_the_mask_scan():
    for n in range(1, 6):
        for poset in posets_up_to_iso(n):
            assert all_opens(poset) == _scan_opens(poset)
    rng = random.Random(17)
    for n in list(range(6, 13)) * 2:
        poset = _random_poset(rng, n)
        assert all_opens(poset) == _scan_opens(poset)
    chain = FinitePoset(12, [(i, j) for i in range(12) for j in range(i, 12)])
    assert all_opens(chain) == _scan_opens(chain)
    assert len(all_opens(chain)) == 13
    antichain = FinitePoset(12, [])
    assert all_opens(antichain) == list(range(4096))


def test_opens_are_up_sets():
    for n in range(1, 5):
        for poset in posets_up_to_iso(n):
            for mask in all_opens(poset):
                assert poset.is_up_closed(mask)


def test_cone_operations():
    a = LscFun(SIGMA, [1, 2])
    assert LscFun.sup([LscFun(SIGMA, [0, 1]), LscFun(SIGMA, [1, 1])]).values == (
        ExtReal(1),
        ExtReal(1),
    )
    with pytest.raises(PosetMismatch):
        LscFun.sup([a, LscFun(DISCRETE2, [1, 2])])
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
            LscFun.sup(funs)


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
    transitivity test before the constructor decided it: the reference."""
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
    return [FinitePoset(n, found[key]) for key in sorted(found)]


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
    """The cubic validation that bitmask rows replaced, on a reflexive
    table: the reference."""
    rows = [tuple(bool(v) for v in row) for row in table]
    n = len(rows)
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
        n = len(table)
        # the constructor takes the reflexive closure of the pairs
        for i in range(n):
            table[i][i] = True
        pairs = [(i, j) for i in range(n) for j in range(n) if table[i][j]]
        try:
            _triple_loop_validate(table)
            expected = None
        except (NotAntisymmetric, NotTransitive) as exc:
            expected = (type(exc), exc.witness)
        try:
            poset = FinitePoset(n, pairs)
            got = None
        except (NotAntisymmetric, NotTransitive) as exc:
            got = (type(exc), exc.witness)
        assert got == expected
        outcomes.add(None if got is None else got[0])
        if got is None:
            assert all(poset.leq(i, j) == table[i][j] for i in range(n) for j in range(n))
            assert all(
                poset.up_mask(i) == sum(1 << j for j in range(n) if table[i][j])
                for i in range(n)
            )
    assert outcomes == {None, NotAntisymmetric, NotTransitive}


def test_posets_hash_by_their_order():
    a = FinitePoset(3, [(0, 1), (1, 2), (0, 2)])
    b = FinitePoset(3, [(1, 2), (0, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, DISCRETE2, SIGMA}) == 3
    assert hash(LscFun(SIGMA, [ZERO, INF])) == hash(LscFun(SIGMA, [ZERO, INF]))


class _TablePoset:
    """The table-based poset that up-set masks replaced: the reference.

    It kept the order twice, as a bool table next to the masks, and built
    the table from the pairs as well.
    """

    def __init__(self, table):
        rows = tuple(tuple(map(bool, row)) for row in table)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("relation table must be square and nonempty")
        up = tuple(sum(1 << j for j in compress(range(n), row)) for row in rows)
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
    def from_pairs(cls, size, pairs):
        # FinitePoset's message for a poset with no elements
        if size < 1 and not pairs:
            raise ValueError("a poset needs at least one element")
        table = [[False] * size for _ in range(size)]
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
    except (NotAntisymmetric, NotTransitive) as exc:
        return None, (type(exc), exc.witness)
    except ValueError as exc:
        return None, (ValueError, str(exc))


def test_up_set_masks_match_the_table_poset():
    rng = random.Random(29)
    built, errors = [], set()
    for _ in range(500):
        n = rng.randint(1, 8)
        table = _near_poset(rng, n)
        # the constructor adds every (i, i) itself; now and then the pairs list it too
        listed = rng.random() >= 0.8
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if table[i][j] and (i != j or listed)]
        rng.shuffle(pairs)
        size = n
        if rng.random() < 0.05:
            size = rng.choice((0, -1, n - 1))  # pairs outside, or no elements
        got, got_err = _outcome(lambda: FinitePoset(size, pairs))
        want, want_err = _outcome(lambda: _TablePoset.from_pairs(size, pairs))
        assert got_err == want_err
        errors.add(None if got_err is None else got_err[0])
        if got is None:
            continue
        assert got.n == want.n
        assert all(got.leq(i, j) is want.leq(i, j) for i in range(got.n) for j in range(got.n))
        assert got.pairs() == want.pairs()
        assert repr(got) == repr(want)
        built.append((got, want))
    assert errors == {None, NotAntisymmetric, NotTransitive, ValueError}
    sample = built[::7]
    for a, a_old in sample:
        for b, b_old in sample:
            assert (a == b) == (a_old == b_old)
            assert (hash(a) == hash(b)) == (hash(a_old) == hash(b_old))
    assert any(a == b and a is not b for a, _ in sample for b, _ in sample)
