import json
import random

import pytest

from conedual import (
    INF,
    ONE,
    ZERO,
    DualFunctional,
    ExtReal,
    ExtVec,
    FinitePoset,
    LinFun,
    LscFun,
    SimpleValuation,
)
from conedual.cli import main
from conedual.errors import ParseError, _echo
from conedual.extreal import _PendingVec
from conedual import jsonio, parse_extreal
from conedual.jsonio import decode_extreal, decode_open_set, decode_vector, decode_vectors


def _entry(obj):
    """One JSON entry as an ``ExtReal``: ``parse_extreal`` for a string and a
    nonnegative int as itself, with the decoder's messages; the reference."""
    if isinstance(obj, str):
        return parse_extreal(obj)
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f'expected "p/q", "p", or "inf", got {_echo(obj)}')
    if obj < 0:
        raise ParseError(f"expected a nonnegative value, got {_echo(obj)}")
    return ExtReal(obj)


def reference_decode(obj, path):
    """The decoder the fused one replaced: ``_entry`` per entry, then ExtVec."""
    entries = []
    for v in obj:
        try:
            entries.append(_entry(v))
        except ParseError as exc:
            raise ParseError(f"{path}[{len(entries)}]: {exc}") from None
    return ExtVec(entries)


def _big(rng):
    return rng.getrandbits(70) | 1 << 69


def _random_entry(rng):
    kind = rng.randrange(14)
    if kind == 0:
        q = rng.randint(1, 12)
        return f"{rng.randint(0, 30) * q}/{q * rng.randint(1, 4)}"  # unreduced
    if kind == 1:
        return rng.choice(["0", "0/7", "0/1", "00", "000"])
    if kind == 2:
        return rng.choice(["inf", " inf", "inf\n"])
    if kind == 3:
        return f" {rng.randint(0, 9)}/{rng.randint(1, 9)} "  # padded
    if kind == 4:
        return rng.choice(["1000", "1000/3", "2/010", "03", "06/04"])  # leading zeros
    if kind == 5:
        return f"{_big(rng)}/{_big(rng)}"  # 70-bit numerator and denominator
    if kind == 6:
        return str(_big(rng))
    if kind == 7:
        return rng.choice([0, 1, 5, _big(rng)])  # JSON ints
    return f"{rng.randint(0, 40)}/{rng.randint(1, 16)}"


def _random_vector(rng):
    dim = rng.randint(1, 9)
    shape = rng.randrange(8)
    if shape == 0:
        return [rng.choice(["0", 0, "0/3", " 0 "]) for _ in range(dim)]
    if shape == 1:
        return [rng.choice(["inf", " inf "]) for _ in range(dim)]
    return [_random_entry(rng) for _ in range(dim)]


def _long_entry(rng):
    """An entry string longer than the memo's key limit, so it is parsed on every call."""
    text = rng.choice([f"{_big(rng)}/{_big(rng)}", "inf", f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"])
    return text.center(jsonio._KEY_MAX + rng.randint(1, 8))


def test_family_decoder_matches_the_reference_per_vector():
    rng = random.Random(29)
    seen = set()
    for _ in range(600):
        family = []
        for _ in range(rng.randint(1, 6)):
            vec = _random_vector(rng)
            if rng.randrange(4) == 0:
                vec[rng.randrange(len(vec))] = _long_entry(rng)
            family.append(vec)
        got = decode_vectors(family, "$.c_gens", "vectors")
        assert len(got) == len(family)
        for vec, obj in zip(got, family):
            ref = ExtVec([_entry(e) for e in obj])
            assert vec._entries is None
            assert vec._form == ref._form and vec == ref and hash(vec) == hash(ref)
            for e in obj:
                if type(e) is int:
                    seen.add("int")
                    continue
                if len(e) > jsonio._KEY_MAX:
                    seen.add("long")
                    assert e not in jsonio._ENTRIES
                if e.strip() in ("inf", "0"):
                    seen.add(e.strip())
                if e != e.strip():
                    seen.add("padded")
            if any(e.num.bit_length() >= 70 for e in ref.entries):
                seen.add("70-bit")
        if len({len(v) for v in family}) == 1:
            # a block of an open set decodes as the same family
            rep = decode_open_set({"blocks": [family]}, "$")
            assert [b.coeffs for b in rep.blocks[0].branches] == got
            seen.add("block")
    assert seen >= {"long", "inf", "0", "padded", "int", "70-bit", "block"}
    assert decode_vectors([["4/6", " 0 "], ["inf", "2/3"]], "$", "vectors") == [
        ExtVec([ExtReal(2, 3), 0]), ExtVec([INF, ExtReal(2, 3)])]


def _structure(vec):
    return [(e.num, e.den) for e in vec.entries]


def test_decoder_matches_parse_extreal_plus_extvec():
    rng = random.Random(2024)
    seen = set()
    for _ in range(3000):
        obj = _random_vector(rng)
        ref = reference_decode(obj, "$.y")
        # the forms, compared structurally, before anything reads the entries
        got = decode_vector(obj, "$.y")
        assert got._entries is None
        assert got._form == ref._form
        # == and hash on the fused vector's form alone, both ways round
        got = decode_vector(obj, "$.y")
        assert got == ref and ref == got and hash(got) == hash(ref)
        assert got._entries is None
        # the entries built on demand, reduced exactly as parse_extreal does
        assert _structure(got) == _structure(ref) and got.entries == ref.entries
        rebuilt = ExtVec(got.entries)
        assert rebuilt == got and got == rebuilt and hash(rebuilt) == hash(got)
        fun = LinFun(decode_vector(obj, "$.y"))
        finite = all(e.is_finite for e in ref.entries)
        assert (not fun.coeffs._form[2]) == finite
        if finite:
            assert tuple(e.as_fraction() for e in fun.coeffs) == tuple(e.as_fraction() for e in ref.entries)
        seen.update(type(v).__name__ for v in obj)
        for v, e in zip(obj, ref.entries):
            if isinstance(v, str) and "/" in v and e.den not in (0, int(v.split("/")[1])):
                seen.add("unreduced")
            if isinstance(v, str) and v != v.strip():
                seen.add("padded")
            if e.num.bit_length() > 64 or e.den.bit_length() > 64:
                seen.add("wide")
        if all(e == INF for e in ref.entries):
            seen.add("all inf")
        if not any(ref.entries):
            seen.add("all zero")
    assert seen == {"str", "int", "unreduced", "padded", "wide", "all inf", "all zero"}


_BAD = [1.5, 0.0, 2e300, True, False, "-3", -1, "-1/2", "1/0", "1/-2", "0/0",
        "x", "", " ", "1/", "/2", "1/2/3", "inf/1", "1.5", "1e3", "Infinity",
        None, ["1"], [], {"num": 1},
        # what int() reads but the grammar "p/q", "p", "inf" does not: a sign,
        # underscores, inner spaces and digits outside ASCII
        "-0", "+1", "+6/+4", "3/+2", "1_0", "1_0/4", "2/1_0", "1 / 2", "1 /2",
        "\uff11", "\u0663", "\u00b2"]


def _outcome(decode, obj):
    """The form a decoder gives, or its error message."""
    try:
        return decode(obj, "$.y")._form
    except ParseError as exc:
        return str(exc)


def test_memo_gives_the_same_forms_and_messages_cold_and_warm():
    rng = random.Random(2024)
    vectors = [_random_vector(rng) for _ in range(3000)]
    # the first 1,000 again, each with one rejected entry spliced in, for the messages
    rng = random.Random(2025)
    for obj in vectors[:1000]:
        y = list(obj)
        y.insert(rng.randint(0, len(y)), rng.choice(_BAD))
        vectors.append(y)
    expected = [_outcome(reference_decode, obj) for obj in vectors]
    assert sum(type(e) is str for e in expected) == 1000
    jsonio._ENTRIES.clear()
    cold = [_outcome(decode_vector, obj) for obj in vectors]
    assert jsonio._ENTRIES
    warm = [_outcome(decode_vector, obj) for obj in vectors]
    assert cold == expected
    assert warm == expected


def test_memo_stores_only_short_strings_that_parse():
    jsonio._ENTRIES.clear()
    rng = random.Random(11)
    for _ in range(200):
        y = [_random_entry(rng) for _ in range(rng.randint(0, 3))] + [rng.choice(_BAD)]
        with pytest.raises(ParseError):
            decode_vector(y, "$.y")
    for bad in _BAD:
        with pytest.raises(ParseError):
            decode_extreal(bad, "$.v")
    assert jsonio._ENTRIES
    assert not {bad for bad in _BAD if type(bad) is str} & set(jsonio._ENTRIES)
    for key, (num, den) in jsonio._ENTRIES.items():
        assert type(key) is str and len(key) <= 32
        e = _entry(key)  # a rejected string would raise here
        assert (e.num, e.den) == (num, den)
    # 32 characters are stored, 33 are not, and both decode alike
    for text in ["1/" + "0" * 29 + "7", "1/" + "0" * 30 + "7"]:
        assert decode_vector([text], "$")._form == ExtVec([_entry(text)])._form
        assert (text in jsonio._ENTRIES) == (len(text) == 32)


def test_memo_is_bounded():
    jsonio._ENTRIES.clear()
    for k in range(10_000):
        decode_vector([str(k), f"{k}/7"], "$")
        assert len(jsonio._ENTRIES) <= 4096
    assert jsonio._ENTRIES
    assert decode_vector(["9999/7"], "$") == ExtVec([ExtReal(9999, 7)])


def test_decode_extreal_is_the_same_on_a_hit_and_on_a_miss():
    entries = ["3/6", " inf ", "inf", "0/5", "12", "06/04", 7, 0] + _BAD
    expected = []
    for v in entries:
        try:
            expected.append((_entry(v), None))
        except ParseError as exc:
            expected.append((None, f"$.v: {exc}"))
    jsonio._ENTRIES.clear()
    for _ in range(2):  # cold, then warm
        got = []
        for v in entries:
            try:
                e = decode_extreal(v, "$.v")
            except ParseError as exc:
                got.append((None, str(exc)))
            else:
                assert type(e) is ExtReal and (e is INF) == (e.den == 0)
                got.append((e, None))
        assert got == expected
        assert {"3/6", " inf ", "inf", "0/5", "12", "06/04"} <= set(jsonio._ENTRIES)


def _cli_message(tmp_path, command, payload):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    code = main([command, "--input", str(inp), "--output", str(out)])
    doc = json.loads(out.read_bytes())
    return code, doc


def test_decoder_rejects_exactly_what_parse_extreal_rejects(tmp_path):
    rng = random.Random(7)
    for entry in _BAD:
        good = [_random_entry(rng) for _ in range(rng.randint(0, 4))]
        y = good + [entry] + [_random_entry(rng) for _ in range(rng.randint(0, 2))]
        with pytest.raises(ParseError) as ref_exc:
            reference_decode(y, "$.y")
        expected = str(ref_exc.value)
        assert expected.startswith(f"$.y[{len(good)}]: ")
        with pytest.raises(ParseError) as exc:
            decode_vector(y, "$.y")
        assert str(exc.value) == expected
        code, doc = _cli_message(tmp_path, "minkowski", {"blocks": [[["1"] * len(y)]], "y": y})
        assert code == 1
        assert doc == {"error": "malformed_input", "message": expected}
        # the same entry as a dual functional's coefficients and as weights
        poset = {"size": len(y), "leq": []}
        code, doc = _cli_message(tmp_path, "ss-recover", {**poset, "coeffs": y})
        assert code == 1
        message = expected.replace("$.y[", "$.coeffs[", 1)
        assert doc == {"error": "malformed_input", "message": message}
        payload = {**poset, "direction": "to_opens", "weights": y}
        code, doc = _cli_message(tmp_path, "mobius", payload)
        assert code == 1
        message = expected.replace("$.y[", "$.weights[", 1)
        assert doc == {"error": "malformed_input", "message": message}


def test_never_indexed_vector_pairs_compares_and_encodes():
    v = decode_vector(["6/4", "inf", "0", " 2 ", 3], "$")
    w = ExtVec([1, 0, 5, 1, ExtReal(1, 3)])
    assert v.dot(w) == ExtReal(9, 2)
    assert v.dot(ExtVec([0, 1, 0, 0, 0])) == INF
    assert v.dim == len(v) == 5
    same = decode_vector(["3/2", " inf", "0/9", "2", "3"], "$")
    assert v == same and hash(v) == hash(same)
    assert v != decode_vector(["3/2", "inf", "0", "2", "4"], "$")
    assert v._entries is None and same._entries is None
    assert [str(e) for e in v] == ["3/2", "inf", "0", "2", "3"]
    assert repr(decode_vector(["4/6", "0"], "$")) == "(2/3, 0)"
    assert decode_vector(["1/2", "1/3"], "$")[1] == ExtReal(1, 3)


_VECTOR_READS = {
    "==": lambda v, w, u: v == w and w == v and (v == u) == (w == u),
    "hash": lambda v, w, u: hash(v) == hash(w),
    "iter": lambda v, w, u: list(v) == list(w),
    "repr": lambda v, w, u: repr(v) == repr(w),
    "dot": lambda v, w, u: _same_value(v.dot(u), w.dot(u)) and _same_value(u.dot(v), u.dot(w)),
    "index": lambda v, w, u: v[-1] == w[-1],
    "entries": lambda v, w, u: v.entries == w.entries,
    "scale": lambda v, w, u: v.scale(ExtReal(3, 2)) == w.scale(ExtReal(3, 2)),
}


def _same_value(a, b):
    return (a.num, a.den) == (b.num, b.den)


def test_a_block_vector_acts_like_decode_vector_of_the_same_json():
    rng = random.Random(5779)
    infinite = 0
    for _ in range(150):
        obj = _random_vector(rng)
        w = decode_vector(obj, "$")
        infinite += INF in w.entries
        u = ExtVec([rng.choice([0, 1, ExtReal(2, 3), INF]) for _ in obj])
        for name, same in _VECTOR_READS.items():
            v = decode_open_set({"blocks": [[obj]]}, "$").blocks[0].branches[0].coeffs
            # the dimension is read from the pending numerators
            assert v.dim == len(v) == w.dim and type(v) is _PendingVec, name
            assert same(v, w, u), name
            assert type(v) is ExtVec and v._form == w._form, name
            # read again as the plain ExtVec it became
            assert all(again(v, w, u) for again in _VECTOR_READS.values()), name
    assert infinite >= 20


@pytest.mark.parametrize("payload, message", [
    ({"blocks": [[["1", "1"], ["0", "0"], ["1"]]], "y": ["1", "1"]},
     "branches disagree on dimension"),
    ({"blocks": [[["1", "1"]], [["0", "0"], ["1", "1"]], [["1"]]], "y": ["1", "1"]},
     "blocks disagree on dimension"),
    ({"blocks": [[["1", "1"]], [["0", "0"], ["1", "1"]]], "y": ["1"]}, "2 versus 1"),
])
def test_a_block_vector_of_another_dimension_after_a_pruned_one_is_refused(
        tmp_path, payload, message):
    # (0, 0) pairs 0, at or below the best, so the walk would leave its block there
    assert _cli_message(tmp_path, "minkowski", payload) == (
        1, {"error": "dimensionmismatch", "message": message})



class _Key:
    """Not a string, but equal to one and hashed alike, so a memo lookup finds it."""

    def __init__(self, text):
        self.text = text

    def __hash__(self):
        return hash(self.text)

    def __eq__(self, other):
        return other == self.text

    def __repr__(self):
        return f"_Key({self.text!r})"


class _Text(str):
    """A string of another type than ``str``, which the memo does not store."""


def _lazy(objs):
    """``objs`` decoded by the two lazy families: spec-order generators and open-set blocks."""
    return decode_vectors(objs, "$", "vectors", lazy=True) + [
        decode_open_set({"blocks": [[obj]]}, "$").blocks[0].branches[0].coeffs for obj in objs]


def test_a_lazy_family_vector_acts_like_decode_vector_of_the_same_json(monkeypatch):
    looped = []
    from_ratios = _PendingVec._from_ratios

    def counted(*args, **kwargs):
        looped.append(args)
        return from_ratios(*args, **kwargs)

    # the vectors that the loop decodes, not one pass over the memo
    monkeypatch.setattr(_PendingVec, "_from_ratios", counted)
    long = " " + "1/" + "0" * 29 + "7"
    assert len(long) == jsonio._KEY_MAX + 1
    # JSON ints, a string too long to store, a str subclass, a string first seen
    # in the family and, in the last vector, the same string again
    objs = [[1, 0, "3/2", 5], [long, "2", "inf"], [_Text("3/4"), "1"],
            ["3/4", "inf", "0"], ["3/4", "0"]]
    want = [decode_vector(obj, "$") for obj in objs]
    us = [ExtVec([[ONE, INF, ExtReal(2, 3), ZERO][k % 4] for k in range(w.dim)]) for w in want]
    for name, same in _VECTOR_READS.items():
        jsonio._ENTRIES.clear()
        for memo in ("cold", "warm", "cleared before the first read"):
            looped.clear()
            vecs = _lazy(objs)
            # every entry a stored string: the memo pass, once "3/4" is stored in the family
            assert len(looped) == (4 if memo == "cold" else 3) + 3, (name, memo)
            if memo == "cleared before the first read":
                jsonio._ENTRIES.clear()
            for v, w, u in zip(vecs, want + want, us + us):
                assert type(v) is _PendingVec and v.dim == len(v) == w.dim, (name, memo)
                assert same(v, w, u), (name, memo)
                assert type(v) is ExtVec and v._form == w._form, (name, memo)


def test_a_lazy_family_refuses_what_the_eager_decoder_refuses():
    decode_vector(["1", "2"], "$")  # both stored
    for bad in _BAD + [_Key("1")]:
        obj = ["1", bad, "2"]
        with pytest.raises(ParseError) as eager:
            decode_vectors([["2"], obj], "$.c_gens", "vectors")
        assert str(eager.value).startswith("$.c_gens[1][1]: "), bad
        with pytest.raises(ParseError) as lazy:
            decode_vectors([["2"], obj], "$.c_gens", "vectors", lazy=True)
        assert str(lazy.value) == str(eager.value)
        with pytest.raises(ParseError) as block:
            decode_open_set({"blocks": [[["2"], obj]]}, "$")
        assert str(block.value) == str(eager.value).replace("$.c_gens", "$.blocks[0]")


def test_a_bad_entry_in_the_last_generator_of_a_dominated_pair_is_reported(tmp_path):
    gens = [["1", "2", "0", "1/2", "inf", "3", "0", "1"] for _ in range(60)]
    gens[59][7] = "1/-2"
    payload = {"c_gens": gens, "y": ["1"] * 8, "y_prime": ["2"] * 8}
    assert _cli_message(tmp_path, "spec-order", payload) == (1, {
        "error": "malformed_input", "message": "$.c_gens[59][7]: negative denominator: '1/-2'"})

def test_holders_keep_a_decoded_vector_whole():
    poset = FinitePoset(3, [(0, 1), (1, 2), (0, 2)])
    raw = ["1/2", "2", "inf"]
    makers = [
        (lambda v: SimpleValuation(poset, v), lambda h: h._vec),
        (DualFunctional, lambda h: h._vec),
        (lambda v: LscFun(poset, v), lambda h: h._vec),
        (LinFun, lambda h: h.coeffs),
    ]
    for make, vec_of in makers:
        v = decode_vector(raw, "$")
        held = make(v)
        assert vec_of(held) is v and v._entries is None
        twin = make(decode_vector(raw, "$"))
        assert held == twin
        assert hash(held) == hash(twin)
        assert vec_of(held) is v and v._entries is None
        assert vec_of(twin)._entries is None


@pytest.mark.parametrize("command, payload, message", [
    ("sep", {"dim": 2, "generators": [["1", "1"], ["1", "x"]]},
     "$.generators[1][1]: not an extended rational: 'x'"),
    ("sep", {"dim": 2, "generators": [["1", "1"], []]},
     "$.generators[1]: expected a nonempty array of extended rationals, got []"),
    ("spec-order", {"c_gens": [["1"], ["2"], [-1]], "y": ["1"], "y_prime": ["1"]},
     "$.c_gens[2][0]: expected a nonnegative value, got -1"),
    ("minkowski", {"blocks": [[["1"]], [["1"], ["0", "1/0"]]], "y": ["1"]},
     "$.blocks[1][1][1]: zero denominator: '1/0'"),
    ("minkowski", {"blocks": [[["1"]], [["1"], "2"]], "y": ["1"]},
     "$.blocks[1][1]: expected a nonempty array of extended rationals, got '2'"),
    ("minkowski", {"blocks": [[["1"]], {}], "y": ["1"]},
     "$.blocks[1]: expected a nonempty array of coefficient arrays, got {}"),
    ("minkowski", {"blocks": [[["1", "2"]], [["1", "x"]]], "y": ["1", "1"]},
     "$.blocks[1][0][1]: not an extended rational: 'x'"),
    ("spec-order", {"c_gens": [["1", "2"], ["1", "x"]], "y": ["1", "1"], "y_prime": ["1", "1"]},
     "$.c_gens[1][1]: not an extended rational: 'x'"),
    ("spec-order", {"c_gens": [["1", "2"], "3"], "y": ["1", "1"], "y_prime": ["1", "1"]},
     "$.c_gens[1]: expected a nonempty array of extended rationals, got '3'"),
    ("spec-order", {"c_gens": [["1", "2"], [True]], "y": ["1", "1"], "y_prime": ["1", "1"]},
     '$.c_gens[1][0]: expected "p/q", "p", or "inf", got True'),
    ("spec-order", {"c_gens": [["1", "2"], ["1", 1.5]], "y": ["1", "1"], "y_prime": ["1", "1"]},
     '$.c_gens[1][1]: expected "p/q", "p", or "inf", got 1.5'),
    ("spec-order", {"c_gens": [["1", "2"], ["1", "1/0"]], "y": ["1", "1"], "y_prime": ["1", "1"]},
     "$.c_gens[1][1]: zero denominator: '1/0'"),
    ("sep", {"dim": 2, "generators": [["1", "2"], "3"]},
     "$.generators[1]: expected a nonempty array of extended rationals, got '3'"),
    # forms that int() reads but the grammar does not
    ("spec-order", {"c_gens": [["1", "2"], ["1", "1_0"]], "y": ["1", "1"], "y_prime": ["1", "1"]},
     "$.c_gens[1][1]: not an extended rational: '1_0'"),
    ("sep", {"dim": 2, "generators": [["1", "1"], ["\uff11", "1"]]},
     "$.generators[1][0]: not an extended rational: '\uff11'"),
    ("sep", {"dim": 2, "generators": [["1", "1"], ["1", "\u0663"]]},
     "$.generators[1][1]: not an extended rational: '\u0663'"),
    ("minkowski", {"blocks": [[["1"]], [["1"], ["0", "+1"]]], "y": ["1"]},
     "$.blocks[1][1][1]: not an extended rational: '+1'"),
    ("minkowski", {"blocks": [[["1", "1 / 2"]]], "y": ["1", "1"]},
     "$.blocks[0][0][1]: not an extended rational: '1 / 2'"),
    ("sep", {"dim": 2, "generators": [["3/+2", "1"]]},
     "$.generators[0][0]: not an extended rational: '3/+2'"),
])
def test_vector_arrays_name_the_failing_vector_in_full(tmp_path, command, payload, message):
    # decode_vectors and decode_open_set build a vector's path only when it fails;
    # each message is pinned as the decoder printed it before families were read in one pass
    assert _cli_message(tmp_path, command, payload) == (
        1, {"error": "malformed_input", "message": message})


@pytest.mark.parametrize("kind", ["min", "sup"])
def test_a_sublinear_functional_is_lin_or_max(tmp_path, kind):
    payload = {"f": ["1"], "phi": {"kind": kind, "branches": [["1"]]}}
    assert _cli_message(tmp_path, "dominates", payload) == (
        1, {"error": "malformed_input",
            "message": f'$.phi.kind: expected "lin" or "max", got {kind!r}'})
