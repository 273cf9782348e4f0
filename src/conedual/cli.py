"""Batch command line front end.

Reads one JSON instance (stdin or --input), writes one JSON result (stdout
or --output), in three stages: the command's ``_decode_*`` validates all of
the JSON and returns a library function with its arguments; ``main`` calls
it, and ``_DOMAIN_ERRORS`` turns a domain exception of the call into its
payload; the command's ``_encode_*`` turns the result into the document.
Exit codes: 0 on success, 1 on malformed input, 2 on domain outcomes (the
documents with an "error" key), which report the error kind and the witness.
Output is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# perfbench/spans.py swaps cli.json and cli.jsonio for proxies, so both stay bound here,
# and it rebinds library names such as separate here, so decoders read them when they run
from . import jsonio, suites
from .convex_sep import MeetsCorner, separate
from .errors import (
    ConeDualError,
    NotAValuation,
    NotLSC,
    ParseError,
    PreconditionViolated,
    UndefinedDifference,
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
    encode_fraction,
    encode_fractions,
    encode_vector,
    fail,
    mask_to_indices,
    require_key,
)
from .valuations import DualFunctional, SimpleValuation, from_opens, recover_function, to_opens

DEFAULT_SEED = suites.DEFAULT_SEED
_COEFF_VECTORS = "a nonempty array of coefficient vectors"


def _decode_sep(payload, args):
    dim = decode_int(require_key(payload, "dim", "$"), "$.dim", minimum=1)
    raw = require_key(payload, "generators", "$")
    return separate, (decode_vectors(raw, "$.generators", "a nonempty array of vectors"), dim)


def _encode_sep(outcome):
    if isinstance(outcome, MeetsCorner):
        witness = [[j, encode_fraction(c)] for j, c in outcome.witness]
        return {"error": "meets_v", "witness": witness}
    return {"outcome": "separated", "weights": encode_fractions(outcome.weights)}


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
            {"x": encode_vector(r.fun.coeffs), "a": encode_fractions(r.weights)}
            for r in results
        ],
        "certificates": [encode_fractions(r.certificate) for r in results],
    }


def _decode_dominates(payload, args):
    f = LinFun(decode_vector(require_key(payload, "f", "$"), "$.f"))
    phi = decode_sublinear(require_key(payload, "phi", "$"), "$.phi")
    return dominated_by_max, (f, phi)


def _encode_dominates(answer):
    ok, lam = answer
    return {"dominated": ok, "certificate": encode_fractions(lam) if ok else None}


def _decode_minkowski(payload, args):
    rep = decode_open_set(payload, "$")
    return minkowski, (rep, decode_vector(require_key(payload, "y", "$"), "$.y"))


def _encode_minkowski(value):
    return {"value": str(value)}


def _decode_spec_order(payload, args):
    gens = decode_vectors(require_key(payload, "c_gens", "$"), "$.c_gens", _COEFF_VECTORS)
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
    return {"f": encode_vector(f.values)}


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
        return {"weights": encode_vector(result.weights)}
    opens = [{"open": mask_to_indices(mask), "value": str(v)} for mask, v in result.items()]
    return {"opens": opens}


def _decode_check(payload, args):
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    return _run_suites, (names, args.seed, args.max_size)


def _run_suites(names, seed, max_size):
    reports = [suites.run_suite(n, seed=seed, max_size=max_size) for n in names]
    return {"seed": seed, "reports": reports}


def _encode_check(result):
    if all(r["passed"] for r in result["reports"]):
        return result
    return {"error": "suite_failed", **result}


# The domain exceptions a call may raise, each with the builder of its exit-2 payload.
_DOMAIN_ERRORS = {
    PreconditionViolated: lambda e: {"error": "precondition_violated", "clause": e.clause_index,
                                     "witness": encode_vector(e.witness)},
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="conedual",
        description="Exact separation, interpolation, and duality instances over extended orthants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", default="-", help="input JSON path, - for stdin")
        p.add_argument("--output", default="-", help="output JSON path, - for stdout")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized suites")
        p.add_argument("--verbose", action="store_true", help="log progress to stderr")
        if name == "check":
            p.add_argument(
                "--suite",
                default="all",
                choices=["all"] + list(suites.SUITES),
                help="which suite to run",
            )
            p.add_argument(
                "--max-size",
                type=int,
                default=None,
                help="cap the poset sizes explored by enumeration suites",
            )
    return parser


_PARSER = _build_parser()


def _read_payload(args):
    if args.command == "check":
        return {}
    try:
        text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text("utf-8")
        return json.loads(text)
    except OSError as exc:
        raise ParseError(f"cannot read input: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"input is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("input is not valid JSON: nested too deeply") from None


def _write(args, payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    decode, encode, _ = _COMMANDS[args.command]
    try:
        fn, call_args = decode(_read_payload(args), args)
        try:
            result = fn(*call_args)
        except tuple(_DOMAIN_ERRORS) as exc:
            doc = _DOMAIN_ERRORS[type(exc)](exc)
        else:
            doc = encode(result)
        code = 2 if "error" in doc else 0
    except (ParseError, ValueError) as exc:
        doc, code = {"error": "malformed_input", "message": str(exc)}, 1
    except ConeDualError as exc:
        doc, code = {"error": type(exc).__name__.lower(), "message": str(exc)}, 1
        witness = getattr(exc, "witness", None)
        if witness is not None:
            doc["witness"] = list(witness) if isinstance(witness, tuple) else witness
    if args.verbose and code == 0:
        print(f"{args.command}: ok", file=sys.stderr)
    _write(args, doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
