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


@pytest.mark.parametrize("clause", [[0, 1], [1, 0]])
def test_interpolate_rejects_a_clause_with_members_of_two_dimensions(tmp_path, clause):
    payload = {
        "c_gens": [["1", "1"], ["1", "1", "5"]],
        "clauses": [clause],
        "phi": {"kind": "lin", "coeffs": ["2", "2"]},
    }
    code, out = run_cli(tmp_path, "interpolate", payload)
    assert code == 1
    assert json.loads(out) == {"error": "dimensionmismatch", "message": "3 versus 2"}


@pytest.mark.parametrize("clauses", [[[0], [1]], [[1], [0]]])
def test_interpolate_checks_every_generator_dimension_before_any_clause(tmp_path, clauses):
    # clause [0] alone violates phi, but the second generator's dimension is checked first
    payload = {
        "c_gens": [["5", "5"], ["1"]],
        "clauses": clauses,
        "phi": {"kind": "lin", "coeffs": ["1", "1"]},
    }
    code, out = run_cli(tmp_path, "interpolate", payload)
    assert code == 1
    assert json.loads(out) == {"error": "dimensionmismatch", "message": "1 versus 2"}


def test_dominates_command(tmp_path):
    payload = {"f": ["1", "1"], "phi": {"kind": "max", "branches": [["2", "0"], ["0", "2"]]}}
    code, out = run_cli(tmp_path, "dominates", payload)
    assert code == 0
    assert json.loads(out) == {"certificate": ["1/2", "1/2"], "dominated": True}
    payload["f"] = ["2", "1"]
    code, out = run_cli(tmp_path, "dominates", payload)
    assert code == 0
    # the refuting point y = (1/2, 1/2): f(y) = 3/2 > 1 = phi(y)
    assert json.loads(out) == {"certificate": ["1/2", "1/2"], "dominated": False}


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


@pytest.mark.parametrize("y, y_prime", [(["1", "0"], ["0", "1"]), (["0", "1"], ["1", "0"])])
def test_spec_order_checks_every_generator_dimension_before_comparing(tmp_path, y, y_prime):
    payload = {"c_gens": [["1", "0"], ["1"]], "y": y, "y_prime": y_prime}
    code, out = run_cli(tmp_path, "spec-order", payload)
    assert code == 1
    assert json.loads(out) == {"error": "dimensionmismatch", "message": "1 versus 2"}


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
    code, out = run_cli(tmp_path, "check", extra=["--suite", "directedness"])
    assert code == 0


def test_check_names_its_suites_and_default_seed_as_the_suites_module_does():
    from conedual import cli, suites

    assert cli._SUITES == tuple(suites.SUITES)
    assert cli.DEFAULT_SEED == suites.DEFAULT_SEED
    commands = next(a for a in cli._PARSER._actions if a.dest == "command").choices
    suite = next(a for a in commands["check"]._actions if a.dest == "suite")
    assert suite.choices == ["all", *suites.SUITES]
    # only check takes a seed
    for name in commands:
        seed = getattr(cli._PARSER.parse_args([name]), "seed", None)
        assert seed == (suites.DEFAULT_SEED if name == "check" else None)


# the bytes the CI step compares the installed console script's output against
CHECK_EXTREAL = ('{"reports":[{"cases":7,"checks":1945,"failure_count":0,"failures":[],'
                 '"passed":true,"seed":1729,"suite":"extreal"}],"seed":1729}\n')


def test_check_imports_the_suites_when_it_runs():
    proc = subprocess.run([sys.executable, "-m", "conedual", "check", "--suite", "extreal"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, CHECK_EXTREAL, "")


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
    # over the table's own keys.  The bytes are those the command printed
    # when to_opens still validated its own table against a second
    # enumeration and the recheck listed the opens again.
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
    assert (code, calls) == (0, [3])
    assert out == b'{"weights":["3","1/2","2"]}\n'

    # a table that no weights induce still fails the recheck
    calls.clear()
    table = [{"open": [], "value": "1"}, {"open": [1], "value": "2"}, {"open": [0, 1], "value": "3"}]
    code, out = run_cli(tmp_path, "mobius", {"size": 2, "leq": [[0, 1]], "direction": "from_opens", "table": table})
    assert (code, calls) == (2, [2])
    assert out == b'{"error":"not_a_valuation","message":"table is not induced by pointwise weights"}\n'


def _fake_suite(passed):
    def suite_extreal(seed):
        return {"failure_count": 0 if passed else 1, "passed": passed, "seed": seed, "suite": "extreal"}

    return suite_extreal


_CHAIN = {"size": 2, "leq": [[0, 1]], "direction": "from_opens"}
# one row per outcome kind: (argv, stdin, exit code, exact stdout)
OUTCOMES = [
    (["sep"], {"dim": 2, "generators": [["2", "0"], ["0", "2"]]}, 0,
     '{"outcome":"separated","weights":["1/2","1/2"]}\n'),
    (["dominates"], {"f": ["2", "1"], "phi": {"kind": "max", "branches": [["2", "0"], ["0", "2"]]}}, 0,
     '{"certificate":["1/2","1/2"],"dominated":false}\n'),
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
def test_every_outcome_kind_prints_its_exact_bytes(monkeypatch, capsys, argv, stdin, code, stdout):
    from conedual import suites

    if argv[0] == "check":
        monkeypatch.setitem(suites.SUITES, "extreal", _fake_suite(code == 0))
    text = stdin if isinstance(stdin, str) else json.dumps(stdin)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == stdout
    assert err == ""


@pytest.mark.parametrize("size", [4097, 200_000, 10**9])
@pytest.mark.parametrize("argv, rest", [
    (["ss-recover"], {"coeffs": ["1"]}),
    (["mobius"], {"direction": "to_opens", "weights": ["1"]}),
    (["mobius"], {"direction": "from_opens", "table": [{"open": [], "value": "0"}]}),
])
def test_an_oversized_poset_exits_one_before_any_mask_is_built(monkeypatch, capsys, argv, rest, size):
    from conedual import jsonio

    def no_poset(size, pairs):
        raise AssertionError("a poset was built")

    monkeypatch.setattr(jsonio, "FinitePoset", no_poset)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"size": size, "leq": [], **rest})))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ('{"error":"toolarge","message":"$.size: a poset has at most 4096 elements, '
                   f'got {size}"}}\n')
    assert err == ""


def test_the_largest_poset_still_decodes():
    from conedual import jsonio

    assert jsonio.decode_poset({"size": 4096, "leq": [[0, 4095]]}, "$").leq(0, 4095)


# command lines the parser rejects, each with its message; the wording of an
# invalid choice varies between Python versions, so only its start is pinned
REJECTED = [
    (["sep", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    (["check", "--suite", "nope"], "argument --suite: invalid choice: 'nope'"),
    (["check", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["sep", "--seed", "5"], "unrecognized arguments: --seed 5"),
    (["check", "--input", "x"], "unrecognized arguments: --input x"),
    (["minkowski", "--max-size", "2"], "unrecognized arguments: --max-size 2"),
    (["sep", "--verbose"], "unrecognized arguments: --verbose"),
    (["check", "--max-size", "2"], "unrecognized arguments: --max-size 2"),
]


@pytest.mark.parametrize("argv, message", REJECTED)
def test_a_rejected_command_line_exits_one_with_one_document(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{}"))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert out.count("\n") == 1 and err == ""
    assert set(doc) == {"error", "message"} and doc["error"] == "malformed_input"
    assert doc["message"].startswith(message)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sep", "--help"])
    assert exc.value.code == 0
    assert "--input" in capsys.readouterr().out


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


@pytest.mark.parametrize("source", ["--input", "stdin"])
@pytest.mark.parametrize("data", [b"\xff\xfe", b'{"dim": 1, "generators": [["\xff"]]}'],
                         ids=["bare bytes", "inside a JSON string"])
def test_input_that_is_not_utf8_is_malformed_input(tmp_path, source, data):
    # stdin is read as bytes and decoded strictly, whatever error handler the locale gives it
    path = tmp_path / "in.json"
    path.write_bytes(data)
    argv = ["sep", "--input", str(path)] if source == "--input" else ["sep"]
    proc = subprocess.run([sys.executable, "-m", "conedual", *argv],
                          input=b"" if source == "--input" else data, capture_output=True)
    assert proc.returncode == 1
    assert proc.stdout == b'{"error":"malformed_input","message":"cannot read input: not UTF-8 text"}\n'
    assert "Traceback" not in proc.stderr.decode()


def test_utf8_text_on_stdin_still_reads_as_text():
    proc = subprocess.run([sys.executable, "-m", "conedual", "sep"],
                          input='{"dim": 1, "generators": [["\u00e9"]]}'.encode(), capture_output=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["message"] == "$.generators[0][0]: not an extended rational: '\u00e9'"


@pytest.mark.parametrize("case", ["missing directory", "a directory"])
def test_an_unwritable_output_exits_one_without_a_traceback(tmp_path, case):
    output = str(tmp_path / "missing" / "out.json") if case == "missing directory" else str(tmp_path)
    reason = ("[Errno 2] No such file or directory" if case == "missing directory"
              else "[Errno 21] Is a directory")
    proc = subprocess.run([sys.executable, "-m", "conedual", "sep", "--output", output],
                          input='{"dim": 2, "generators": [["2","0"],["0","2"]]}',
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"error": "malformed_input",
                                       "message": f"cannot write output: {reason}: {output!r}"}
    assert proc.stdout.count("\n") == 1
    # the request was answered but not delivered, so it is no success
    assert proc.stderr == ""


@pytest.mark.parametrize("argv, payload, start", [
    (["sep"], {"dim": "7" * 1_000_000, "generators": [["1"]]},
     "$.dim: expected an integer, got '777"),
    (["minkowski"], {"blocks": [[["1", "1"]]], "y": ["1", "x" * 1_000_000]},
     "$.y[1]: not an extended rational: 'xxx"),
    # the parser's message: "unrecognized arguments: " and the option, 1,000,002 characters in all
    (["sep", "--" + "x" * 999_976], {}, "unrecognized arguments: --xxx"),
])
def test_a_huge_offending_value_is_echoed_cut_short(monkeypatch, capsys, argv, payload, start):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert main(argv) == 1
    out, _ = capsys.readouterr()
    assert len(out.encode()) < 1024
    message = json.loads(out)["message"]
    assert message.startswith(start)
    assert message.endswith("... (1000002 characters)")


def _oversized_minkowski():
    """One functional ``(1/q_1, ..., 1/q_9)`` at ``y = 1``, with ``q_i = i M + 1``
    and ``M`` a multiple of 2520 with about 500 digits.  A common prime of two
    ``q_i`` would divide ``j - i < 9``, hence ``M``, so they are pairwise coprime,
    and the exact value has a denominator of about 4,500 digits."""
    m = 2520 * 10**496
    return {"blocks": [[[f"1/{i * m + 1}" for i in range(1, 10)]]], "y": ["1"] * 9}


UNPRINTABLE = {"error": "toolarge", "path": "output",
               "message": "the answer has a number with too many digits to print"}


def test_an_answer_too_long_to_print_is_its_own_error(monkeypatch, capsys):
    payload = json.dumps(_oversized_minkowski())
    assert len(payload) < 5000
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    assert main(["minkowski"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == UNPRINTABLE
    assert out.count("\n") == 1 and err == ""
    assert "set_int_max_str_digits" not in out


def test_a_domain_payload_too_long_to_print_is_the_same_error(monkeypatch, capsys):
    from conedual import cli
    from conedual.errors import PreconditionViolated

    def refute(*args):
        raise PreconditionViolated("refuted", witness=(Fraction(1, 10**5000),), clause_index=0)

    monkeypatch.setattr(cli, "minkowski", refute)
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"blocks": [[["1"]]], "y": ["1"]}'))
    assert main(["minkowski"]) == 1
    assert json.loads(capsys.readouterr().out) == UNPRINTABLE


def test_an_integer_over_the_digit_limit_is_malformed_input(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"dim": ' + "9" * 5000 + ', "generators": [["1"]]}'))
    assert main(["sep"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": "malformed_input",
                               "message": "input has an integer with too many digits to read"}
    assert err == ""
