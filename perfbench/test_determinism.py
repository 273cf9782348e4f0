"""Determinism of the benchmark's generated inputs and traced counts.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_determinism.py

Two traced passes with one seed must see identical inputs, identical
response bytes and identical work counts; another seed must draw other
inputs.  Each workload runs a short prefix of its pool.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import conedual.cli as cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("lp.calls", "lp.cells_mean", "lp.result_bits_max", "extreal.ops",
          "jsonio.calls", "functionals.eval.calls")
# one mix period of each workload
PREFIX = {"lp-mix": 64, "finite-eval": 16}


def traced(name, seed):
    pool = workloads.make_pool(workloads.WORKLOADS[name], seed, PREFIX[name])
    answers = run.Answers()
    recorder, codes, sizes, _ = run.traced_pass(cli, pool, answers)
    return pool, answers, run.layer_metrics(recorder, pool, codes, sizes)


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_same_seed_repeats_inputs_answers_and_counts(name):
    pool_a, answers_a, metrics_a = traced(name, 5)
    pool_b, answers_b, metrics_b = traced(name, 5)
    assert pool_a == pool_b
    assert answers_a.digest() == answers_b.digest()
    assert {k: metrics_a[k] for k in COUNTS} == {k: metrics_b[k] for k in COUNTS}
    assert answers_a.check(pool_a) == (0, [])


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_other_seed_draws_other_inputs(name):
    a = workloads.make_pool(workloads.WORKLOADS[name], 5, PREFIX[name])
    b = workloads.make_pool(workloads.WORKLOADS[name], 6, PREFIX[name])
    assert [r.body for r in a] != [r.body for r in b]
    assert all(x.body != y.body for x, y in zip(a, b))


def test_finite_eval_runs_no_lp():
    _, _, metrics = traced("finite-eval", 5)
    assert metrics["lp.calls"] == 0
    assert metrics["functionals.eval.calls"] > 0


def _bindings():
    mods = [sys.modules[f"conedual.{layer}"] for layer in spans.LAYERS]
    owners = mods + [getattr(sys.modules[f"conedual.{layer}"], cls)
                     for layer, cls, _ in spans.METHOD_SPANS]
    owners.append(sys.modules["conedual.extreal"].ExtReal)
    return {(id(owner), k): v for owner in owners for k, v in vars(owner).items()}


def test_recorder_restores_every_binding():
    before = _bindings()
    recorder = spans.Recorder()
    with recorder:
        assert sys.modules["conedual.convex_sep"].solve_lp is not sys.modules["conedual.lp"].solve_lp
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
