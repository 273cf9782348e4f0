import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from conedual import ExtVec, parse_extreal, verify_meets_corner, verify_separated
from conedual.cli import main


def run_cli(tmp_path, command, payload=None, extra=()):
    argv = [command]
    if payload is not None:
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(payload))
        argv += ["--input", str(inp)]
    out = tmp_path / "out.json"
    argv += ["--output", str(out)]
    argv += list(extra)
    code = main(argv)
    return code, out.read_bytes()


def test_sep_separated(tmp_path):
    code, out = run_cli(
        tmp_path, "sep", {"dim": 2, "generators": [["2", "0"], ["0", "2"]]}
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"outcome": "separated", "weights": ["1/2", "1/2"]}
    # round trip: the reported weights verify against the original input
    weights = [Fraction(w) for w in doc["weights"]]
    assert verify_separated([ExtVec([2, 0]), ExtVec([0, 2])], weights, 2)


def test_sep_meets_corner_is_a_domain_error(tmp_path):
    code, out = run_cli(
        tmp_path, "sep", {"dim": 2, "generators": [["3", "0"], ["0", "3"]]}
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "meets_v"
    assert doc["witness"] == [[0, "1/2"], [1, "1/2"]]
    witness = [(i, Fraction(c)) for i, c in doc["witness"]]
    assert verify_meets_corner([ExtVec([3, 0]), ExtVec([0, 3])], witness)


def test_sep_with_infinite_entries(tmp_path):
    code, out = run_cli(tmp_path, "sep", {"dim": 2, "generators": [["inf", "0"]]})
    assert code == 0
    assert json.loads(out) == {"outcome": "separated", "weights": ["0", "1"]}


def test_malformed_input_exits_one(tmp_path):
    code, out = run_cli(tmp_path, "sep", {"dim": 2, "generators": [["-1", "0"]]})
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "malformed_input"
    assert "generators[0][0]" in doc["message"]

    code, out = run_cli(tmp_path, "sep", {"generators": [["1", "0"]]})
    assert code == 1
    assert "dim" in json.loads(out)["message"]

    inp = tmp_path / "bad.json"
    inp.write_text("{not json")
    out_path = tmp_path / "out.json"
    code = main(["sep", "--input", str(inp), "--output", str(out_path)])
    assert code == 1


def test_interpolate_command(tmp_path):
    payload = {
        "c_gens": [["2", "0"], ["0", "2"]],
        "clauses": [[0, 1]],
        "phi": {"kind": "max", "branches": [["1", "1"]]},
    }
    code, out = run_cli(tmp_path, "interpolate", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["witnesses"] == [{"a": ["1/2", "1/2"], "x": ["1", "1"]}]
    assert doc["certificates"] == [["1"]]


def test_interpolate_output_reverifies(tmp_path):
    from conedual import LinFun, SublinFun, dominated_by_max, parse_extreal

    payload = {
        "c_gens": [["4", "0"], ["0", "4"], ["2", "2"]],
        "clauses": [[0, 1, 2], [2]],
        "phi": {"kind": "max", "branches": [["3", "1"], ["1", "3"]]},
    }
    code, out = run_cli(tmp_path, "interpolate", payload)
    assert code == 0
    doc = json.loads(out)
    phi = SublinFun([[3, 1], [1, 3]])
    for entry, cert in zip(doc["witnesses"], doc["certificates"]):
        x = LinFun([parse_extreal(v) for v in entry["x"]])
        weights = [Fraction(a) for a in entry["a"]]
        assert sum(weights) == 1 and all(w >= 0 for w in weights)
        ok, _ = dominated_by_max(x, phi)
        assert ok
        lam = [Fraction(c) for c in cert]
        assert sum(lam) == 1 and all(v >= 0 for v in lam)


def test_interpolate_precondition_violation(tmp_path):
    payload = {
        "c_gens": [["5", "5"]],
        "clauses": [[0]],
        "phi": {"kind": "max", "branches": [["1", "1"]]},
    }
    code, out = run_cli(tmp_path, "interpolate", payload)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "precondition_violated"
    assert doc["clause"] == 0
    assert len(doc["witness"]) == 2


def test_dominates_command(tmp_path):
    payload = {"f": ["1", "1"], "phi": {"kind": "max", "branches": [["2", "0"], ["0", "2"]]}}
    code, out = run_cli(tmp_path, "dominates", payload)
    assert code == 0
    assert json.loads(out) == {"certificate": ["1/2", "1/2"], "dominated": True}
    payload["f"] = ["2", "1"]
    code, out = run_cli(tmp_path, "dominates", payload)
    assert code == 0
    assert json.loads(out) == {"certificate": None, "dominated": False}


def test_minkowski_command(tmp_path):
    payload = {"blocks": [[["2", "0"], ["0", "2"]]], "y": ["1", "4"]}
    code, out = run_cli(tmp_path, "minkowski", payload)
    assert code == 0
    assert json.loads(out) == {"value": "2"}


def test_spec_order_command(tmp_path):
    payload = {"c_gens": [["1", "0"], ["1", "1"]], "y": ["1", "1"], "y_prime": ["2", "0"]}
    code, out = run_cli(tmp_path, "spec-order", payload)
    assert code == 0
    assert json.loads(out) == {"leq": True}


def test_ss_recover_command(tmp_path):
    payload = {"size": 2, "leq": [[0, 1]], "coeffs": ["1", "2"]}
    code, out = run_cli(tmp_path, "ss-recover", payload)
    assert code == 0
    assert json.loads(out) == {"f": ["1", "2"]}

    payload["coeffs"] = ["2", "1"]
    code, out = run_cli(tmp_path, "ss-recover", payload)
    assert code == 2
    assert json.loads(out) == {"error": "not_lsc", "witness": [0, 1]}


def test_non_transitive_poset_reports_its_witness(tmp_path):
    payload = {"size": 3, "leq": [[0, 1], [1, 2]], "coeffs": ["1", "2", "3"]}
    code, out = run_cli(tmp_path, "ss-recover", payload)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "nottransitive"
    assert doc["witness"] == [0, 1, 2]


def test_mobius_commands(tmp_path):
    payload = {"size": 2, "leq": [[0, 1]], "direction": "to_opens", "weights": ["3", "2"]}
    code, out = run_cli(tmp_path, "mobius", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "opens": [
            {"open": [], "value": "0"},
            {"open": [1], "value": "2"},
            {"open": [0, 1], "value": "5"},
        ]
    }
    back = {
        "size": 2,
        "leq": [[0, 1]],
        "direction": "from_opens",
        "table": doc["opens"],
    }
    code, out = run_cli(tmp_path, "mobius", back)
    assert code == 0
    assert json.loads(out) == {"weights": ["3", "2"]}

    bad = dict(back)
    bad["table"] = [
        {"open": [], "value": "0"},
        {"open": [1], "value": "inf"},
        {"open": [0, 1], "value": "inf"},
    ]
    code, out = run_cli(tmp_path, "mobius", bad)
    assert code == 2
    assert json.loads(out)["error"] == "undefined_difference"


def test_check_command_reports_pass_counts(tmp_path):
    code, out = run_cli(tmp_path, "check", extra=["--suite", "extreal"])
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["suite"] == "extreal"
    assert doc["reports"][0]["passed"] is True
    assert doc["reports"][0]["checks"] > 0


def test_check_other_fast_suites(tmp_path):
    code, out = run_cli(tmp_path, "check", extra=["--suite", "regression"])
    assert code == 0
    code, out = run_cli(
        tmp_path, "check", extra=["--suite", "directedness", "--max-size", "2"]
    )
    assert code == 0


def test_byte_identical_reruns(tmp_path):
    first = run_cli(tmp_path, "check", extra=["--suite", "extreal", "--seed", "5"])
    second = run_cli(tmp_path, "check", extra=["--suite", "extreal", "--seed", "5"])
    assert first == second
    a = run_cli(tmp_path, "sep", {"dim": 2, "generators": [["3", "0"], ["0", "3"]]})
    b = run_cli(tmp_path, "sep", {"dim": 2, "generators": [["3", "0"], ["0", "3"]]})
    assert a == b


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "conedual.cli", "sep"],
        input='{"dim": 1, "generators": [["1/2"]]}',
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"outcome": "separated", "weights": ["1"]}


def test_package_runs_as_a_module_like_its_cli():
    # the README's meets-the-corner example, which exits 2
    stdin = '{"dim": 2, "generators": [["3","0"],["0","3"]]}'
    runs = [
        subprocess.run([sys.executable, "-m", module, "sep"], input=stdin, capture_output=True, text=True)
        for module in ("conedual", "conedual.cli")
    ]
    assert [(p.returncode, p.stdout) for p in runs] == [
        (2, '{"error":"meets_v","witness":[[0,"1/2"],[1,"1/2"]]}\n')
    ] * 2


def test_outputs_reparse_as_extended_rationals(tmp_path):
    code, out = run_cli(
        tmp_path, "minkowski", {"blocks": [[["1", "1"]]], "y": ["inf", "3"]}
    )
    assert code == 0
    assert parse_extreal(json.loads(out)["value"]).is_infinite


def test_bad_vector_entry_reports_its_path(tmp_path):
    cases = [
        (["1", "2", "-3"], "$.y[2]: negative values are rejected: '-3'"),
        (["1", "2", 1.5], '$.y[2]: expected "p/q", "p", or "inf", got 1.5'),
        (["1", "2", True], '$.y[2]: expected "p/q", "p", or "inf", got True'),
        (["1", "2", -1], "$.y[2]: expected a nonnegative value, got -1"),
        (["1", "2", "3/0"], "$.y[2]: zero denominator: '3/0'"),
        (["1", "x", "-3"], "$.y[1]: not an extended rational: 'x'"),
    ]
    for y, message in cases:
        code, out = run_cli(tmp_path, "minkowski", {"blocks": [[["1", "1", "1"]]], "y": y})
        assert code == 1
        assert json.loads(out) == {"error": "malformed_input", "message": message}
    code, out = run_cli(
        tmp_path, "minkowski", {"blocks": [[["1", "1", "1"], ["1", "0", "4/0"]]], "y": ["1"]}
    )
    assert code == 1
    assert json.loads(out)["message"] == "$.blocks[0][1][2]: zero denominator: '4/0'"


def test_bad_poset_and_open_table_report_their_paths(tmp_path):
    chain = {"size": 2, "leq": [[0, 1]]}
    poset_cases = [
        ([], "$: expected an object, got []"),
        ({"leq": []}, "$: missing key 'size'"),
        ({"size": "2", "leq": []}, "$.size: expected an integer, got '2'"),
        ({"size": 0, "leq": []}, "$.size: expected an integer >= 1, got 0"),
        ({"size": 2}, "$: missing key 'leq'"),
        ({"size": 2, "leq": {}}, "$.leq: expected an array of [i, j] pairs, got {}"),
        ({"size": 2, "leq": [[0, 1], [1]]}, "$.leq[1]: expected a pair [i, j], got [1]"),
        ({"size": 2, "leq": [[0, 1], "01"]}, "$.leq[1]: expected a pair [i, j], got '01'"),
        ({"size": 2, "leq": [[True, 1]]}, "$.leq[0][0]: expected an integer, got True"),
        ({"size": 2, "leq": [[0.0, 1]]}, "$.leq[0][0]: expected an integer, got 0.0"),
        ({"size": 2, "leq": [[-1, 1]]}, "$.leq[0][0]: expected an integer >= 0, got -1"),
        ({"size": 2, "leq": [[0, "1"]]}, "$.leq[0][1]: expected an integer, got '1'"),
        ({"size": 2, "leq": [[5, -1]]}, "$.leq[0][1]: expected an integer >= 0, got -1"),
        ({"size": 2, "leq": [[-1, 9]]}, "$.leq[0][0]: expected an integer >= 0, got -1"),
        ({"size": 2, "leq": [[0, 1], [2, 0]]}, "$.leq[1]: expected indices below 2, got [2, 0]"),
        ({"size": 2, "leq": [[0, 2]]}, "$.leq[0]: expected indices below 2, got [0, 2]"),
    ]
    table_cases = [
        (None, "$: missing key 'table'"),
        ({}, "$.table: expected an array of {\"open\": [...], \"value\": ...}, got {}"),
        ([3], "$.table[0]: expected an object, got 3"),
        ([{"value": "0"}], "$.table[0]: missing key 'open'"),
        ([{"open": 1, "value": "0"}], "$.table[0].open: expected an array of element indices, got 1"),
        ([{"open": [], "value": "0"}, {"open": [1, "0"], "value": "1"}],
         "$.table[1].open[1]: expected an integer, got '0'"),
        ([{"open": [False], "value": "0"}], "$.table[0].open[0]: expected an integer, got False"),
        ([{"open": [1, -1], "value": "0"}], "$.table[0].open[1]: expected an integer >= 0, got -1"),
        ([{"open": [0, 2], "value": "0"}], "$.table[0].open[1]: expected indices below 2, got 2"),
        ([{"open": []}], "$.table[0]: missing key 'value'"),
        ([{"open": [], "value": "-1"}], "$.table[0].value: negative values are rejected: '-1'"),
        ([{"open": [], "value": "0"}, {"open": [], "value": "0"}], "$.table[1]: duplicate open set"),
        ([{"open": [1, 1], "value": "0"}, {"open": [1], "value": "0"}], "$.table[1]: duplicate open set"),
        ([{"open": [], "value": "0"}, {"open": [1], "value": "1"}],
         "$.table: table must cover exactly the open sets of the poset"),
    ]
    cases = [(dict(payload, direction="to_opens", weights=["1", "1"]) if isinstance(payload, dict)
              else payload, message) for payload, message in poset_cases]
    for table, message in table_cases:
        payload = dict(chain, direction="from_opens")
        if table is not None:
            payload["table"] = table
        cases.append((payload, message))
    for payload, message in cases:
        code, out = run_cli(tmp_path, "mobius", payload)
        assert code == 1, message
        assert json.loads(out) == {"error": "malformed_input", "message": message}


def test_mobius_enumerates_the_opens_once_per_table(tmp_path, monkeypatch):
    # to_opens tabulates over one enumeration of the opens; from_opens
    # validates the decoded table against one, and its recheck tabulates
    # over another.  The bytes are those the command printed when to_opens
    # still validated its own table against a second enumeration.
    from conedual import valuations

    calls = []
    real = valuations.all_opens

    def spy(poset, *args):
        calls.append(poset.n)
        return real(poset, *args)

    monkeypatch.setattr(valuations, "all_opens", spy)
    poset = {"size": 3, "leq": [[0, 1], [0, 2]]}
    code, out = run_cli(tmp_path, "mobius", dict(poset, direction="to_opens", weights=["3", "1/2", "2"]))
    assert (code, calls) == (0, [3])
    assert out == (
        b'{"opens":[{"open":[],"value":"0"},{"open":[1],"value":"1/2"},{"open":[2],"value":"2"},'
        b'{"open":[1,2],"value":"5/2"},{"open":[0,1,2],"value":"11/2"}]}\n'
    )

    calls.clear()
    back = dict(poset, direction="from_opens", table=json.loads(out)["opens"])
    code, out = run_cli(tmp_path, "mobius", back)
    assert (code, calls) == (0, [3, 3])
    assert out == b'{"weights":["3","1/2","2"]}\n'

    # a table that no weights induce still fails the recheck
    calls.clear()
    table = [{"open": [], "value": "1"}, {"open": [1], "value": "2"}, {"open": [0, 1], "value": "3"}]
    code, out = run_cli(tmp_path, "mobius", {"size": 2, "leq": [[0, 1]], "direction": "from_opens", "table": table})
    assert (code, calls) == (2, [2, 2])
    assert out == b'{"error":"not_a_valuation","message":"table is not induced by pointwise weights"}\n'


def _fake_suite(passed):
    def run_suite(name, seed, max_size):
        return {"failure_count": 0 if passed else 1, "passed": passed, "seed": seed, "suite": name}

    return run_suite


_CHAIN = {"size": 2, "leq": [[0, 1]], "direction": "from_opens"}
# one row per outcome kind: (argv, stdin, exit code, exact stdout)
OUTCOMES = [
    (["sep"], {"dim": 2, "generators": [["2", "0"], ["0", "2"]]}, 0,
     '{"outcome":"separated","weights":["1/2","1/2"]}\n'),
    (["dominates"], {"f": ["2", "1"], "phi": {"kind": "max", "branches": [["2", "0"], ["0", "2"]]}}, 0,
     '{"certificate":null,"dominated":false}\n'),
    (["check", "--suite", "extreal"], "", 0,
     '{"reports":[{"failure_count":0,"passed":true,"seed":1729,"suite":"extreal"}],"seed":1729}\n'),
    (["sep"], {"dim": 2, "generators": [["3", "0"], ["0", "3"]]}, 2,
     '{"error":"meets_v","witness":[[0,"1/2"],[1,"1/2"]]}\n'),
    (["interpolate"], {"c_gens": [["5", "5"]], "clauses": [[0]], "phi": {"kind": "max", "branches": [["1", "1"]]}}, 2,
     '{"clause":0,"error":"precondition_violated","witness":["1","0"]}\n'),
    (["ss-recover"], {"size": 2, "leq": [[0, 1]], "coeffs": ["2", "1"]}, 2,
     '{"error":"not_lsc","witness":[0,1]}\n'),
    (["mobius"], dict(_CHAIN, table=[{"open": [], "value": "0"}, {"open": [1], "value": "inf"},
                                     {"open": [0, 1], "value": "inf"}]), 2,
     '{"error":"undefined_difference","message":"weight of element 0 is an infinity minus infinity"}\n'),
    (["mobius"], dict(_CHAIN, table=[{"open": [], "value": "0"}, {"open": [1], "value": "3"},
                                     {"open": [0, 1], "value": "2"}]), 2,
     '{"error":"not_a_valuation","message":"element 0 would need a negative weight"}\n'),
    (["mobius"], dict(_CHAIN, table=[{"open": [], "value": "1"}, {"open": [1], "value": "2"},
                                     {"open": [0, 1], "value": "3"}]), 2,
     '{"error":"not_a_valuation","message":"table is not induced by pointwise weights"}\n'),
    (["check", "--suite", "extreal"], "", 2,
     '{"error":"suite_failed","reports":[{"failure_count":1,"passed":false,"seed":1729,"suite":"extreal"}],'
     '"seed":1729}\n'),
    (["sep"], "", 1,
     '{"error":"malformed_input","message":"input is not valid JSON: Expecting value: line 1 column 1 (char 0)"}\n'),
    (["sep"], {"dim": 2, "generators": []}, 1,
     '{"error":"malformed_input","message":"$.generators: expected a nonempty array of vectors, got []"}\n'),
    (["ss-recover"], {"size": 3, "leq": [[0, 1], [1, 2]], "coeffs": ["1", "2", "3"]}, 1,
     '{"error":"nottransitive","message":"0 <= 1 <= 2 holds but 0 <= 2 fails","witness":[0,1,2]}\n'),
    (["mobius"], {"size": 13, "leq": [], "direction": "to_opens", "weights": ["1"] * 13}, 1,
     '{"error":"toolarge","message":"open-set enumeration is capped at 12 elements"}\n'),
]


@pytest.mark.parametrize("argv, stdin, code, stdout", OUTCOMES)
@pytest.mark.parametrize("verbose", [False, True])
def test_every_outcome_kind_prints_its_exact_bytes(monkeypatch, capsys, argv, stdin, code, stdout, verbose):
    from conedual import suites

    if argv[0] == "check":
        monkeypatch.setattr(suites, "run_suite", _fake_suite(code == 0))
    text = stdin if isinstance(stdin, str) else json.dumps(stdin)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(argv + ["--verbose"] * verbose) == code
    out, err = capsys.readouterr()
    assert out == stdout
    assert err == (f"{argv[0]}: ok\n" if verbose and code == 0 else "")


@pytest.mark.parametrize("case", ["nested 100,000 deep", "missing input file"])
def test_hostile_input_exits_one_without_a_traceback(tmp_path, case):
    missing = str(tmp_path / "missing.json")
    argv, stdin, message = {
        "nested 100,000 deep": (["sep"], "[" * 100_000 + "]" * 100_000,
                                "input is not valid JSON: nested too deeply"),
        "missing input file": (["sep", "--input", missing], "",
                               f"cannot read input: [Errno 2] No such file or directory: {missing!r}"),
    }[case]
    proc = subprocess.run([sys.executable, "-m", "conedual", *argv], input=stdin,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"error": "malformed_input", "message": message}
    assert proc.stdout.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, payload, start", [
    (["sep"], {"dim": "7" * 1_000_000, "generators": [["1"]]},
     "$.dim: expected an integer, got '777"),
    (["minkowski"], {"blocks": [[["1", "1"]]], "y": ["1", "x" * 1_000_000]},
     "$.y[1]: not an extended rational: 'xxx"),
])
def test_a_huge_offending_value_is_echoed_cut_short(monkeypatch, capsys, argv, payload, start):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert main(argv) == 1
    out, _ = capsys.readouterr()
    assert len(out.encode()) < 1024
    message = json.loads(out)["message"]
    assert message.startswith(start)
    assert message.endswith("... (1000002 characters)")
