import json
import random

import pytest

from conedual import (
    INF,
    DualFunctional,
    ExtReal,
    ExtVec,
    FinitePoset,
    LinFun,
    LscFun,
    SimpleValuation,
)
from conedual.cli import main
from conedual.errors import ParseError
from conedual.jsonio import _entry, decode_vector, encode_vector


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
        return rng.choice(["0", "0/7", "0/1", "-0", "000"])
    if kind == 2:
        return rng.choice(["inf", " inf", "inf\n"])
    if kind == 3:
        return f" {rng.randint(0, 9)}/{rng.randint(1, 9)} "  # padded
    if kind == 4:
        return rng.choice(["1_000", "1_000/3", "2/1_0", "+3", "+6/+4"])
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
        fun, ref_fun = LinFun(decode_vector(obj, "$.y")), LinFun(ref)
        assert fun.is_finite == all(e.is_finite for e in ref.entries)
        if ref_fun.is_finite:
            assert fun.fraction_coeffs() == tuple(e.as_fraction() for e in ref.entries)
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


def _cli_message(tmp_path, command, payload):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    code = main([command, "--input", str(inp), "--output", str(out)])
    doc = json.loads(out.read_bytes())
    return code, doc


def test_decoder_rejects_exactly_what_parse_extreal_rejects(tmp_path):
    bad = [1.5, 0.0, 2e300, True, False, "-3", -1, "-1/2", "1/0", "1/-2", "0/0",
           "x", "", " ", "1/", "/2", "1/2/3", "inf/1", "1.5", "1e3", "Infinity",
           None, ["1"], [], {"num": 1}]
    rng = random.Random(7)
    for entry in bad:
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
    assert encode_vector(v) == ["3/2", "inf", "0", "2", "3"]
    assert repr(decode_vector(["4/6", "0"], "$")) == "(2/3, 0)"
    assert decode_vector(["1/2", "1/3"], "$")[1] == ExtReal(1, 3)


def test_holders_keep_a_decoded_vector_whole():
    poset = FinitePoset.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
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
