"""Batch command line front end.

Reads one JSON instance (stdin or --input), writes one JSON result (stdout
or --output), in three stages: the command's ``_decode_*`` validates all of
the JSON and returns a library function with its arguments; ``main`` calls
it, and ``_DOMAIN_ERRORS`` turns a domain exception of the call into its
payload; the command's ``_encode_*`` turns the result into the document,
and a ValueError there, an answer with a number too long to print, is its
own ``toolarge`` document.  Exit codes: 0 on success, 1 on a rejected
command line, malformed input, an answer too long to print or unwritable
output, 2 on domain outcomes (the documents with an "error"
key), which report the error kind and the witness.  Output is deterministic,
for ``check`` given its seed.
"""

from __future__ import annotations

import argparse
import json
import sys

# perfbench/spans.py swaps cli.json and cli.jsonio for proxies, so both stay bound here,
# and it rebinds library names such as separate here, so decoders read them when they run
from . import jsonio
from .convex_sep import MeetsCorner, separate
from .errors import (
    ConeDualError,
    NotAValuation,
    NotLSC,
    ParseError,
    PreconditionViolated,
    UndefinedDifference,
    _cut,
)
from .functionals import LinFun, dominated_by_max, minkowski, specialization_leq
from .interpolate import clause_witnesses
from .jsonio import (
    decode_int,
    decode_open_set,
    decode_open_table,
    decode_poset,
    decode_sublinear,
    decode_valuation,
    decode_vector,
    decode_vectors,
    fail,
    require_key,
)
from .valuations import DualFunctional, SimpleValuation, from_opens, recover_function, to_opens

# suites.DEFAULT_SEED and the names of suites.SUITES, in order: only check imports suites
DEFAULT_SEED = 1729
_SUITES = ("extreal", "separation", "interpolation", "minkowski", "schroeder-simpson",
           "regression", "directedness")
_COEFF_VECTORS = "a nonempty array of coefficient vectors"


def _decode_sep(payload, args):
    dim = decode_int(require_key(payload, "dim", "$"), "$.dim", minimum=1)
    raw = require_key(payload, "generators", "$")
    return separate, (decode_vectors(raw, "$.generators", "a nonempty array of vectors"), dim)


def _encode_sep(outcome):
    if isinstance(outcome, MeetsCorner):
        return {"error": "meets_v", "witness": [[j, str(c)] for j, c in outcome.witness]}
    return {"outcome": "separated", "weights": [str(w) for w in outcome.weights]}


def _decode_interpolate(payload, args):
    gens = decode_vectors(require_key(payload, "c_gens", "$"), "$.c_gens", _COEFF_VECTORS)
    raw_clauses = require_key(payload, "clauses", "$")
    if not isinstance(raw_clauses, list) or not raw_clauses:
        fail("$.clauses", "a nonempty array of index lists", raw_clauses)
    clauses = []
    for i, clause in enumerate(raw_clauses):
        if not isinstance(clause, list) or not clause:
            fail(f"$.clauses[{i}]", "a nonempty array of generator indices", clause)
        idxs = [decode_int(v, f"$.clauses[{i}][{k}]", minimum=0) for k, v in enumerate(clause)]
        for k, idx in enumerate(idxs):
            if idx >= len(gens):
                fail(f"$.clauses[{i}][{k}]", f"an index below {len(gens)}", idx)
        clauses.append(idxs)
    phi = decode_sublinear(require_key(payload, "phi", "$"), "$.phi")
    return clause_witnesses, (clauses, gens, phi)


def _encode_interpolate(results):
    return {
        "witnesses": [
            {"x": [str(v) for v in r.fun.coeffs], "a": [str(w) for w in r.weights]}
            for r in results
        ],
        "certificates": [[str(c) for c in r.certificate] for r in results],
    }


def _decode_dominates(payload, args):
    f = LinFun(decode_vector(require_key(payload, "f", "$"), "$.f"))
    phi = decode_sublinear(require_key(payload, "phi", "$"), "$.phi")
    return dominated_by_max, (f, phi)


def _encode_dominates(answer):
    ok, cert = answer
    return {"dominated": ok, "certificate": [str(c) for c in cert]}


def _decode_minkowski(payload, args):
    rep = decode_open_set(payload, "$")
    return minkowski, (rep, decode_vector(require_key(payload, "y", "$"), "$.y"))


def _encode_minkowski(value):
    return {"value": str(value)}


def _decode_spec_order(payload, args):
    # a dominated pair reads no generator, a refuted one none past its refuter
    gens = decode_vectors(require_key(payload, "c_gens", "$"), "$.c_gens", _COEFF_VECTORS,
                          lazy=True)
    y = decode_vector(require_key(payload, "y", "$"), "$.y")
    y_prime = decode_vector(require_key(payload, "y_prime", "$"), "$.y_prime")
    return specialization_leq, (y, y_prime, gens)


def _encode_spec_order(leq):
    return {"leq": leq}


def _decode_ss_recover(payload, args):
    poset = decode_poset(payload, "$")
    raw = require_key(payload, "coeffs", "$")
    if not isinstance(raw, list) or len(raw) != poset.n:
        fail("$.coeffs", f"an array of {poset.n} extended rationals", raw)
    return recover_function, (DualFunctional(decode_vector(raw, "$.coeffs")), poset)


def _encode_ss_recover(f):
    return {"f": [str(v) for v in f.values]}


def _decode_mobius(payload, args):
    poset = decode_poset(payload, "$")
    direction = require_key(payload, "direction", "$")
    if direction == "to_opens":
        return to_opens, (decode_valuation(payload, poset, "$"),)
    if direction == "from_opens":
        return from_opens, (decode_open_table(payload, poset, "$"),)
    fail("$.direction", '"to_opens" or "from_opens"', direction)


def _encode_mobius(result):
    if isinstance(result, SimpleValuation):
        return {"weights": [str(w) for w in result.weights]}
    n = result.poset.n
    opens = [{"open": [i for i in range(n) if mask >> i & 1], "value": str(v)}
             for mask, v in result.items()]
    return {"opens": opens}


def _decode_check(payload, args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    return _run_suites, (names, args.seed)


def _run_suites(names, seed):
    from . import suites

    reports = [suites.SUITES[name](seed) for name in names]
    return {"seed": seed, "reports": reports}


def _encode_check(result):
    if all(r["passed"] for r in result["reports"]):
        return result
    return {"error": "suite_failed", **result}


# The domain exceptions a call may raise, each with the builder of its exit-2 payload.
_DOMAIN_ERRORS = {
    PreconditionViolated: lambda e: {"error": "precondition_violated", "clause": e.clause_index,
                                     "witness": [str(v) for v in e.witness]},
    NotLSC: lambda e: {"error": "not_lsc", "witness": list(e.witness)},
    UndefinedDifference: lambda e: {"error": "undefined_difference", "message": str(e)},
    NotAValuation: lambda e: {"error": "not_a_valuation", "message": str(e)},
}

_COMMANDS = {
    "sep": (_decode_sep, _encode_sep, "separate generators from the open corner"),
    "interpolate": (_decode_interpolate, _encode_interpolate,
                    "interpolate clauses below a sublinear functional"),
    "dominates": (_decode_dominates, _encode_dominates,
                  "decide pointwise domination by a max of linear functionals"),
    "minkowski": (_decode_minkowski, _encode_minkowski,
                  "evaluate the Minkowski functional of an open set"),
    "spec-order": (_decode_spec_order, _encode_spec_order,
                   "compare points in the induced specialization order"),
    "ss-recover": (_decode_ss_recover, _encode_ss_recover,
                   "recover the representing function of a dual functional"),
    "mobius": (_decode_mobius, _encode_mobius,
               "convert between pointwise weights and open-set tables"),
    "check": (_decode_check, _encode_check, "run the property suites"),
}


# argparse repeats the offending arguments in full, so a message is cut here
_PARSE_MESSAGE_LIMIT = 200


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as ``ParseError``, so ``main`` answers it
    with a ``malformed_input`` document and exit code 1."""

    def error(self, message):
        raise ParseError(_cut(message, _PARSE_MESSAGE_LIMIT))


def _build_parser():
    parser = _Parser(
        prog="conedual",
        description="Exact separation, interpolation, and duality instances over extended orthants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # check reads no instance, and only its suites draw at random
        if name == "check":
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for the suites")
            p.add_argument(
                "--suite",
                default="all",
                choices=["all", *_SUITES],
                help="which suite to run",
            )
        else:
            p.add_argument("--input", default="-", help="input JSON path, - for stdin")
        p.add_argument("--output", default="-", help="output JSON path, - for stdout")
    return parser


_PARSER = _build_parser()


def _read_payload(args):
    if args.command == "check":
        return {}
    try:
        if args.input == "-":
            # the bytes under a text stdin, decoded strictly whatever error handler the
            # locale gave it; a stream without them (an in-process caller's StringIO) is text
            buffer = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        else:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read input: {exc}") from None
    except UnicodeDecodeError:
        raise ParseError("cannot read input: not UTF-8 text") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"input is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("input is not valid JSON: nested too deeply") from None
    except ValueError:
        # a plain ValueError, not a JSONDecodeError: an integer over the interpreter's digit limit
        raise ParseError("input has an integer with too many digits to read") from None


# A number of the answer with more digits than the interpreter converts to a string
_UNPRINTABLE = {"error": "toolarge", "path": "output",
                "message": "the answer has a number with too many digits to print"}


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _write(output, text):
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    output = "-"
    try:
        args = _PARSER.parse_args(argv)
        output = args.output
        decode, encode, _ = _COMMANDS[args.command]
        fn, call_args = decode(_read_payload(args), args)
        try:
            result = fn(*call_args)
        except tuple(_DOMAIN_ERRORS) as exc:
            encode, result = _DOMAIN_ERRORS[type(exc)], exc
    except (ParseError, ValueError) as exc:
        text, code = _dumps({"error": "malformed_input", "message": str(exc)}), 1
    except ConeDualError as exc:
        doc = {"error": type(exc).__name__.lower(), "message": str(exc)}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            doc["witness"] = list(witness) if isinstance(witness, tuple) else witness
        text, code = _dumps(doc), 1
    else:
        # the encode stage: the input was read, so a ValueError here is no malformed input
        try:
            doc = encode(result)
            text, code = _dumps(doc), 2 if "error" in doc else 0
        except ValueError:
            text, code = _dumps(_UNPRINTABLE), 1
    try:
        _write(output, text)
    except OSError as exc:
        _write("-", _dumps({"error": "malformed_input", "message": f"cannot write output: {exc}"}))
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
