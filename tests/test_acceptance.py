"""Acceptance criteria, one test per criterion.

Every check is exact (zero tolerance).  Each test prints a single
"criterion N: PASS/FAIL" line; run with -s to watch them stream.
"""

import json

from conedual import suites


def _finish(number, label, report):
    status = "PASS" if report["passed"] else "FAIL"
    print(
        f"criterion {number} [{label}]: {status} "
        f"({report['checks']} checks, {report['failure_count']} failures)"
    )
    assert report["passed"], report["failures"][:5]


def test_criterion_1_extreal_laws():
    # exhaustive monoid, distributivity, and monotonicity laws on the small
    # grid including infinity, plus the 0 * inf and r * inf edge cases
    _finish(1, "extended real laws", suites.suite_extreal())


def test_criterion_2_separation():
    # 500 seeded instances, dimensions up to 6, up to 8 generators,
    # denominators up to 16, infinity with chance 1/10; every certificate
    # rechecked exactly and low dimensions compared against the dyadic oracle
    _finish(2, "separation certificates", suites.suite_separation())


def test_criterion_3_interpolation():
    # 300 seeded satisfying instances with the sandwich verified exactly at
    # 1000 points each (infinite coordinates included) plus 100 violating
    # instances with exactly verified refutation points
    _finish(3, "interpolation sandwich", suites.suite_interpolation())


def test_criterion_4_minkowski():
    # 200 random block families in dimension up to 4: closed form versus
    # minimum evaluation, membership laws, scaling scans, and convexity of
    # both level sets on sampled dyadic combinations
    _finish(4, "minkowski correspondence", suites.suite_minkowski())


def test_criterion_5_recovery_and_mobius():
    # all posets up to 5 elements (up to isomorphism), 50 coefficient
    # vectors each, evaluation identity on 200 random valuations when
    # monotone and witnessed rejection otherwise; weight/table round trips
    # exhaustively on posets up to 4 elements with values in {0, 1, 2, 3}
    _finish(5, "representing function recovery", suites.suite_schroeder_simpson())


def test_criterion_6_projection_regression():
    # the second projection is not monotone for the order induced by the
    # generators (1,0) and (1,1), although (1,1) precedes (2,0)
    _finish(6, "projection regression", suites.suite_regression())


def test_criterion_7_directedness():
    # the dominated grid family has a greatest element inside itself for
    # every poset on up to 4 elements, grid denominator 2, cap 2
    _finish(7, "dominated family directedness", suites.suite_directedness())


def test_criterion_8_determinism():
    # identical seeds reproduce byte-identical reports for every suite;
    # heavyweight suites rerun at reduced instance counts
    reruns = {
        "extreal": {},
        "separation": {"instances": 60},
        "interpolation": {"instances": 25, "violations": 10, "points": 120},
        "minkowski": {"families": 25},
        "schroeder-simpson": {"vectors": 8, "valuations": 40, "max_size": 4},
        "regression": {},
        "directedness": {"max_size": 3},
    }
    failures = []
    for name, kwargs in reruns.items():
        fn = suites.SUITES[name]
        first = json.dumps(fn(seed=424242, **kwargs), sort_keys=True)
        second = json.dumps(fn(seed=424242, **kwargs), sort_keys=True)
        if first != second:
            failures.append(name)
    status = "PASS" if not failures else "FAIL"
    print(f"criterion 8 [deterministic reruns]: {status} ({len(reruns)} suites)")
    assert not failures, failures
