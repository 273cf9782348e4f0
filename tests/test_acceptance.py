"""Acceptance criteria, one test per criterion.

Every check is exact (zero tolerance).  Each test prints a single
"criterion N: PASS/FAIL" line; run with -s to watch them stream.
"""

import hashlib
import json

from conedual import suites

# sha256 of each default-seed report as compact, key-sorted JSON; these are
# the reports `python -m conedual check --suite all --seed 1729` prints, so
# any change to their bytes fails here
REPORT_SHA256 = {
    "extreal": "83dfca8e01bf582b95003056305f58e90aaba544b36b00e7a685a5af2173b98f",
    "separation": "e156f86110297e06494e4c91de892253ac56c35573a48ed4abed4077d1349fb2",
    "interpolation": "208f8f0fe58d50b9a907f8c007d1842a49ed6282d52379871fe18baa858738df",
    "minkowski": "3a80ae5c1b0c87f0a3d8832892dcccdb5475b2a277a452c6a011ce818c03b78f",
    "schroeder-simpson": "a05eebdc71156bb8f7fdca8a0bbf7f7b03337db9e17c021a83536b68d17c18a4",
    "regression": "65c35f57f4463ef99f9b89a6dac1ef960ee1800a0e5e938973a449b5ec7fdae9",
    "directedness": "8a76c91f60cde2533ad4e2ecf9ab4fab1bc267796f5a91335014cfa6422236db",
}


def _finish(number, label, report):
    status = "PASS" if report["passed"] else "FAIL"
    print(
        f"criterion {number} [{label}]: {status} "
        f"({report['checks']} checks, {report['failure_count']} failures)"
    )
    assert report["passed"], report["failures"][:5]
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[report["suite"]], text


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
