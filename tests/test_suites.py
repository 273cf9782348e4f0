"""What a failing suite reports: its first and last kept labels, its
failure count, its check count, and the cut of the kept labels at 25."""

import types

import pytest

from conedual import suites
from conedual.extreal import ZERO


def _wrong_recovery(phi, poset):
    return types.SimpleNamespace(values=None)


# suite: (the name it calls through conedual.suites, a stand-in that answers
# wrongly, first label, last kept label, failure count, check count)
FAILING = {
    "extreal": ("parse_extreal", lambda text: ZERO,
                "parse round trip 1/3", "parse round trip inf", 6, 1945),
    "separation": ("verify_separated", lambda gens, weights, dim: False,
                   "instance 0: separated weights failed recheck",
                   "instance 150: separated weights failed recheck", 65, 881),
    "interpolation": ("leq_functional", lambda phi, psi: (False, None),
                      "instance 0: constructed hypothesis rejected",
                      "instance 24: constructed hypothesis rejected", 400, 400),
    "minkowski": ("minkowski", lambda rep, y: ZERO,
                  "family 0: block closed form differs at (1)",
                  "family 0: block closed form differs at (1/2)", 8383, 61073),
    "schroeder-simpson": ("recover_function", _wrong_recovery,
                          "poset 1/0 vector 0: wrong recovery",
                          "poset 1/0 vector 24: wrong recovery", 4350, 13254),
    "regression": ("specialization_leq", lambda y, y_prime, gens: False,
                   "(1,1) should precede (2,0) in the induced order",
                   "(1,1) should precede (2,0) in the induced order", 1, 3),
    "directedness": ("check_dominated_directed", lambda phi, poset, d, cap: (False, (0, 0)),
                     "poset 1/0 functional 0: pair without upper bound (0, 0)",
                     "poset 4/0 functional 0: pair without upper bound (0, 0)", 72, 72),
}


def test_every_suite_has_a_failing_case():
    assert set(FAILING) == set(suites.SUITES)


@pytest.mark.parametrize("name", FAILING)
def test_a_failing_suite_reports_its_labels_and_counts(monkeypatch, name):
    attr, wrong, first, last, count, checks = FAILING[name]
    monkeypatch.setattr(suites, attr, wrong)
    report = suites.SUITES[name]()
    assert report["passed"] is False
    assert (report["failures"][0], report["failures"][-1]) == (first, last)
    assert report["failure_count"] == count
    assert len(report["failures"]) == min(count, 25)
    assert report["checks"] == checks
