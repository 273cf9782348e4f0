"""Batch command line front end.

Reads one JSON instance (stdin or --input), writes one JSON result (stdout
or --output).  Exit codes: 0 on success, 1 on malformed input, 2 on domain
errors, which are reported as structured JSON with the error kind and the
witness.  Output is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import sys

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
    encode_fraction,
    encode_fractions,
    encode_vector,
    fail,
    mask_to_indices,
    require_key,
)
from .valuations import DualFunctional, from_opens, recover_function, to_opens

DEFAULT_SEED = suites.DEFAULT_SEED


class DomainFailure(Exception):
    """Structured domain error surfaced to the user with exit code 2."""

    def __init__(self, payload):
        super().__init__(payload.get("error", "domain error"))
        self.payload = payload


def _cmd_sep(payload, args):
    dim = decode_int(require_key(payload, "dim", "$"), "$.dim", minimum=1)
    raw = require_key(payload, "generators", "$")
    if not isinstance(raw, list) or not raw:
        fail("$.generators", "a nonempty array of vectors", raw)
    gens = [decode_vector(g, f"$.generators[{i}]") for i, g in enumerate(raw)]
    outcome = separate(gens, dim)
    if isinstance(outcome, MeetsCorner):
        raise DomainFailure(
            {
                "error": "meets_v",
                "witness": [[j, encode_fraction(c)] for j, c in outcome.witness],
            }
        )
    return {"outcome": "separated", "weights": encode_fractions(outcome.weights)}


def _cmd_interpolate(payload, args):
    raw_gens = require_key(payload, "c_gens", "$")
    if not isinstance(raw_gens, list) or not raw_gens:
        fail("$.c_gens", "a nonempty array of coefficient vectors", raw_gens)
    gens = [decode_vector(g, f"$.c_gens[{i}]") for i, g in enumerate(raw_gens)]
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
    try:
        results = clause_witnesses(clauses, gens, phi)
    except PreconditionViolated as exc:
        raise DomainFailure(
            {
                "error": "precondition_violated",
                "clause": exc.clause_index,
                "witness": encode_vector(exc.witness),
            }
        ) from None
    return {
        "witnesses": [
            {"x": encode_vector(r.fun.coeffs), "a": encode_fractions(r.weights)}
            for r in results
        ],
        "certificates": [encode_fractions(r.certificate) for r in results],
    }


def _cmd_dominates(payload, args):
    f = LinFun(decode_vector(require_key(payload, "f", "$"), "$.f"))
    phi = decode_sublinear(require_key(payload, "phi", "$"), "$.phi")
    ok, lam = dominated_by_max(f, phi)
    if ok:
        return {"dominated": True, "certificate": encode_fractions(lam)}
    return {"dominated": False, "certificate": None}


def _cmd_minkowski(payload, args):
    rep = decode_open_set(payload, "$")
    y = decode_vector(require_key(payload, "y", "$"), "$.y")
    return {"value": str(minkowski(rep, y))}


def _cmd_spec_order(payload, args):
    raw_gens = require_key(payload, "c_gens", "$")
    if not isinstance(raw_gens, list) or not raw_gens:
        fail("$.c_gens", "a nonempty array of coefficient vectors", raw_gens)
    gens = [LinFun(decode_vector(g, f"$.c_gens[{i}]")) for i, g in enumerate(raw_gens)]
    y = decode_vector(require_key(payload, "y", "$"), "$.y")
    y_prime = decode_vector(require_key(payload, "y_prime", "$"), "$.y_prime")
    return {"leq": specialization_leq(y, y_prime, gens)}


def _cmd_ss_recover(payload, args):
    poset = decode_poset(payload, "$")
    raw = require_key(payload, "coeffs", "$")
    if not isinstance(raw, list) or len(raw) != poset.n:
        fail("$.coeffs", f"an array of {poset.n} extended rationals", raw)
    phi = DualFunctional(
        [jsonio.decode_extreal(v, f"$.coeffs[{i}]") for i, v in enumerate(raw)]
    )
    try:
        f = recover_function(phi, poset)
    except NotLSC as exc:
        raise DomainFailure(
            {"error": "not_lsc", "witness": list(exc.witness)}
        ) from None
    return {"f": encode_vector(f.values)}


def _cmd_mobius(payload, args):
    poset = decode_poset(payload, "$")
    direction = require_key(payload, "direction", "$")
    if direction == "to_opens":
        mu = decode_valuation(payload, poset, "$")
        nu = to_opens(mu)
        return {
            "opens": [
                {"open": mask_to_indices(mask), "value": str(value)}
                for mask, value in nu.items()
            ]
        }
    if direction == "from_opens":
        nu = decode_open_table(payload, poset, "$")
        try:
            mu = from_opens(nu)
        except UndefinedDifference as exc:
            raise DomainFailure(
                {"error": "undefined_difference", "message": str(exc)}
            ) from None
        except NotAValuation as exc:
            raise DomainFailure(
                {"error": "not_a_valuation", "message": str(exc)}
            ) from None
        return {"weights": encode_vector(mu.weights)}
    fail("$.direction", '"to_opens" or "from_opens"', direction)


def _cmd_check(payload, args):
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    reports = [suites.run_suite(n, seed=args.seed, max_size=args.max_size) for n in names]
    result = {"seed": args.seed, "reports": reports}
    if not all(r["passed"] for r in reports):
        raise DomainFailure({"error": "suite_failed", **result})
    return result


_COMMANDS = {
    "sep": (_cmd_sep, "separate generators from the open corner"),
    "interpolate": (_cmd_interpolate, "interpolate clauses below a sublinear functional"),
    "dominates": (_cmd_dominates, "decide pointwise domination by a max of linear functionals"),
    "minkowski": (_cmd_minkowski, "evaluate the Minkowski functional of an open set"),
    "spec-order": (_cmd_spec_order, "compare points in the induced specialization order"),
    "ss-recover": (_cmd_ss_recover, "recover the representing function of a dual functional"),
    "mobius": (_cmd_mobius, "convert between pointwise weights and open-set tables"),
    "check": (_cmd_check, "run the property suites"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="conedual",
        description="Exact separation, interpolation, and duality instances over extended orthants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
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
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"input is not valid JSON: {exc}") from None


def _write(args, payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        payload = _read_payload(args)
        result = handler(payload, args)
    except DomainFailure as exc:
        _write(args, exc.payload)
        return 2
    except (ParseError, ValueError) as exc:
        _write(args, {"error": "malformed_input", "message": str(exc)})
        return 1
    except ConeDualError as exc:
        doc = {"error": type(exc).__name__.lower(), "message": str(exc)}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            doc["witness"] = list(witness) if isinstance(witness, tuple) else witness
        _write(args, doc)
        return 1
    if args.verbose:
        print(f"{args.command}: ok", file=sys.stderr)
    _write(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
