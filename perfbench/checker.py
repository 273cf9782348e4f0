"""Independent answer checker for benchmark responses.

Uses only ``fractions.Fraction`` and the request text: nothing from
``conedual`` is imported, so a solver bug cannot hide behind its own
``verify_*`` helpers.  Infinity is the string ``"inf"`` and the extended
arithmetic follows the package's documented conventions (``0 * inf = 0``).

``check(request, code, text)`` returns ``None`` for a correct answer or a
one-line reason for a wrong one.  A response is wrong if it is not exactly
one JSON object, if its exit code is not the one the input justifies, or
if its certificate or witness fails the recheck.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

INF = "inf"
ZERO = Fraction(0)
ONE = Fraction(1)


@lru_cache(maxsize=4096)
def parse(text):
    if text == INF:
        return INF
    if not isinstance(text, str):
        raise ValueError(f"not an extended rational string: {text!r}")
    v = Fraction(text)
    if v < 0:
        raise ValueError(f"negative value {text!r}")
    return v


def add(a, b):
    return INF if a is INF or b is INF else a + b


def mul(a, b):
    if a is INF or b is INF:
        return ZERO if a == 0 or b == 0 else INF
    return a * b


def lt(a, b):
    if a is INF:
        return False
    return b is INF or a < b


def le(a, b):
    return b is INF or (a is not INF and a <= b)


def pair(coeffs, y):
    total = ZERO
    for c, v in zip(coeffs, y):
        if c != 0 and v != 0:
            total = add(total, mul(c, v))
    return total


def vec(raw):
    return [parse(v) for v in raw]


def _simplex(values):
    return all(v is not INF and v >= 0 for v in values) and sum(values, ZERO) == 1


def _expect_keys(out, keys):
    if not isinstance(out, dict) or set(out) != set(keys):
        return f"expected keys {sorted(keys)}, got {out!r:.120}"
    return None


def check_sep(req, code, out):
    gens = [vec(g) for g in req["generators"]]
    dim = req["dim"]
    if code == 0:
        bad = _expect_keys(out, ("outcome", "weights"))
        if bad or out["outcome"] != "separated":
            return bad or "outcome is not 'separated'"
        w = vec(out["weights"])
        if len(w) != dim or not _simplex(w):
            return "weights are not a point of the simplex"
        for i in range(dim):
            if w[i] != 0 and any(g[i] is INF for g in gens):
                return f"positive weight on coordinate {i}, which carries inf"
        for k, g in enumerate(gens):
            if not le(pair(w, g), ONE):
                return f"weights pair with generator {k} above one"
        return None
    if code == 2:
        bad = _expect_keys(out, ("error", "witness"))
        if bad or out["error"] != "meets_v":
            return bad or "error is not 'meets_v'"
        idx = [j for j, _ in out["witness"]]
        coeffs = [parse(c) for _, c in out["witness"]]
        if len(set(idx)) != len(idx) or any(not 0 <= j < len(gens) for j in idx):
            return "witness indexes are not distinct generator indexes"
        if not _simplex(coeffs):
            return "witness weights are not a point of the simplex"
        for i in range(dim):
            x = ZERO
            for j, c in zip(idx, coeffs):
                x = add(x, mul(c, gens[j][i]))
            if not lt(ONE, x):
                return f"witness combination is not above one in coordinate {i}"
        return None
    return f"unexpected exit code {code}"


def check_interpolate(req, code, out, planted):
    gens = [vec(g) for g in req["c_gens"]]
    clauses = req["clauses"]
    branches = [vec(b) for b in req["phi"]["branches"]]
    dim = len(branches[0])
    if code == 0:
        if planted is not None:
            return f"clause {planted} violates the hypothesis but the answer is exit 0"
        bad = _expect_keys(out, ("certificates", "witnesses"))
        if bad:
            return bad
        if len(out["witnesses"]) != len(clauses) or len(out["certificates"]) != len(clauses):
            return "one witness and one certificate per clause expected"
        for c, (clause, wit, cert) in enumerate(zip(clauses, out["witnesses"], out["certificates"])):
            if _expect_keys(wit, ("a", "x")):
                return f"clause {c}: " + _expect_keys(wit, ("a", "x"))
            a = vec(wit["a"])
            lam = vec(cert)
            x = vec(wit["x"])
            if len(a) != len(clause) or not _simplex(a):
                return f"clause {c}: a is not a point of the simplex"
            if len(lam) != len(branches) or not _simplex(lam):
                return f"clause {c}: lambda is not a point of the simplex"
            if len(x) != dim:
                return f"clause {c}: x has the wrong dimension"
            for j in range(dim):
                if x[j] != sum((ai * gens[i][j] for ai, i in zip(a, clause)), ZERO):
                    return f"clause {c}: x differs from sum a_i g_i in coordinate {j}"
                if not x[j] <= sum((lk * h[j] for lk, h in zip(lam, branches)), ZERO):
                    return f"clause {c}: x exceeds sum lambda_k h_k in coordinate {j}"
        return None
    if code == 2:
        if planted is None:
            return "exit 2 on a request whose clauses all satisfy the hypothesis"
        bad = _expect_keys(out, ("clause", "error", "witness"))
        if bad or out["error"] != "precondition_violated":
            return bad or "error is not 'precondition_violated'"
        if out["clause"] != planted:
            return f"reported clause {out['clause']}, planted clause {planted}"
        y = vec(out["witness"])
        if len(y) != dim:
            return "witness has the wrong dimension"
        low = min((pair(gens[i], y) for i in clauses[planted]), key=_order_key)
        high = max((pair(h, y) for h in branches), key=_order_key)
        if not lt(high, low):
            return "witness does not put the clause minimum above phi"
        return None
    return f"unexpected exit code {code}"


def _order_key(v):
    return (1, 0) if v is INF else (0, v)


def _minkowski_value(req):
    y = vec(req["y"])
    best = ZERO
    for block in req["blocks"]:
        v = min((pair(vec(f), y) for f in block), key=_order_key)
        if lt(best, v):
            best = v
    return best


def _order(req):
    n = req["size"]
    leq = {(i, i) for i in range(n)}
    leq.update((i, j) for i, j in req["leq"])
    return n, leq


def check_minkowski(req, code, out):
    if code != 0:
        return f"unexpected exit code {code}"
    bad = _expect_keys(out, ("value",))
    if bad:
        return bad
    want = _minkowski_value(req)
    if parse(out["value"]) != want:
        return f"value {out['value']}, closed form gives {want}"
    return None


def check_spec_order(req, code, out):
    if code != 0:
        return f"unexpected exit code {code}"
    bad = _expect_keys(out, ("leq",))
    if bad:
        return bad
    y, yp = vec(req["y"]), vec(req["y_prime"])
    want = all(le(pair(vec(g), y), pair(vec(g), yp)) for g in req["c_gens"])
    if out["leq"] is not want:
        return f"leq {out['leq']}, closed form gives {want}"
    return None


def check_ss_recover(req, code, out):
    _, leq = _order(req)
    c = vec(req["coeffs"])
    monotone = all(le(c[i], c[j]) for i, j in leq)
    if monotone:
        if code != 0:
            return f"monotone coefficients but exit code {code}"
        bad = _expect_keys(out, ("f",))
        if bad:
            return bad
        if vec(out["f"]) != c:
            return "f differs from the coefficients"
        return None
    if code != 2:
        return f"non-monotone coefficients but exit code {code}"
    bad = _expect_keys(out, ("error", "witness"))
    if bad or out["error"] != "not_lsc":
        return bad or "error is not 'not_lsc'"
    x, y = out["witness"]
    if (x, y) not in leq or not lt(c[y], c[x]):
        return f"pair {x, y} does not witness non-monotonicity"
    return None


def _up_sets(n, leq):
    ups = [0] * n
    for i, j in leq:
        ups[i] |= 1 << j
    return {
        mask for mask in range(1 << n)
        if all(not (mask >> i & 1) or ups[i] & ~mask == 0 for i in range(n))
    }


def check_mobius(req, code, out, planted):
    n, leq = _order(req)
    if req["direction"] == "to_opens":
        if code != 0:
            return f"unexpected exit code {code}"
        bad = _expect_keys(out, ("opens",))
        if bad:
            return bad
        w = vec(req["weights"])
        seen = set()
        for entry in out["opens"]:
            mask = sum(1 << i for i in entry["open"])
            total = ZERO
            for i in entry["open"]:
                total = add(total, w[i])
            if parse(entry["value"]) != total:
                return f"open {entry['open']}: value {entry['value']}, weights sum to {total}"
            seen.add(mask)
        if seen != _up_sets(n, leq) or len(seen) != len(out["opens"]):
            return "table does not list every open set exactly once"
        return None
    w = vec(planted["weights"])
    # weight x is nu(up x) - nu(up x without x): undefined exactly when an
    # element strictly above x carries infinity
    undefined = any(i != j and w[j] is INF for i, j in leq)
    if undefined:
        if code != 2:
            return f"recovery needs inf - inf but exit code {code}"
        bad = _expect_keys(out, ("error", "message"))
        if bad or out["error"] != "undefined_difference":
            return bad or "error is not 'undefined_difference'"
        return None
    if code != 0:
        return f"unexpected exit code {code}"
    bad = _expect_keys(out, ("weights",))
    if bad:
        return bad
    if vec(out["weights"]) != w:
        return "round trip does not return the generated weights"
    return None


def check(request, code, text):
    """None when the response is correct, else the reason it is not."""
    if not text.endswith("\n") or "\n" in text[:-1]:
        return "output is not exactly one line"
    try:
        out = json.loads(text)
        req = json.loads(request.body)
        cmd = request.argv[0]
        if cmd == "sep":
            return check_sep(req, code, out)
        if cmd == "interpolate":
            return check_interpolate(req, code, out, request.planted["clause"])
        if cmd == "minkowski":
            return check_minkowski(req, code, out)
        if cmd == "spec-order":
            return check_spec_order(req, code, out)
        if cmd == "ss-recover":
            return check_ss_recover(req, code, out)
        if cmd == "mobius":
            return check_mobius(req, code, out, request.planted)
    except (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable response: {type(exc).__name__}: {exc}"
    return f"no checker for command {request.argv[0]!r}"
