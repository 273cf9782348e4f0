"""Seeded closed-loop benchmark of the conedual command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lp-mix --seed 1 --seconds 40 --trace 0

One caller, in one process and one thread, sends one JSON request at a time
through ``conedual.cli.main(argv)`` with stdin and stdout swapped for
in-memory buffers, and sends the next only after the previous returned.
Every answer is rechecked afterwards by ``checker.py``, outside the timed
window.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics from ``spans.py`` with ``--trace 1``.
The line before it stamps the run (Python version, nproc, commit, source
digest) and gives the outcome split and ``failed_frac``.

The benchmark builds nothing: it imports the package from ``src/`` of the
checkout and fails, without printing a result, when that is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import checker
import preflight
import spans
import workloads

# Every request of the pool runs in each of at least this many whole rounds,
# so that each latency is a median over two or more calls.
MIN_ROUNDS = 2
# A run that cannot finish MIN_ROUNDS rounds stops at this multiple of --seconds.
MAX_STRETCH = 2.5
# Set-up probes run in two groups, before and after the timed window, so
# that one slow stretch of the machine does not decide setup_s.
SETUP_PROBES = 9


# The reference step: Gauss-Jordan elimination over Fractions on a fixed
# 6 x 7 matrix, the kind of exact arithmetic conedual does.  It is timed
# next to every request, and request times are reported in units of it, so
# that a shared machine running faster or slower for a while moves both.
_REF_RNG = random.Random(0)
REF_MATRIX = [[Fraction(_REF_RNG.randint(-9, 9), _REF_RNG.randint(1, 9)) for _ in range(7)]
              for _ in range(6)]
# Latencies are scaled to a machine on which the reference step takes this long.
REF_MS = 1.0


def reference_step():
    rows = [list(row) for row in REF_MATRIX]
    for col in range(len(rows)):
        pivot = next(i for i in range(col, len(rows)) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[col])]
    return rows


def reference_seconds():
    t0 = time.perf_counter()
    reference_step()
    return time.perf_counter() - t0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "conedual").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit(root):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def setup_times(env, probes):
    """Wall times of fresh interpreters importing conedual.cli."""
    argv = [sys.executable, "-c", "import conedual.cli"]
    times = []
    for _ in range(probes):
        # no timeout: with one, wait() polls with growing sleeps and the
        # measured time snaps to the polling schedule
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


class Client:
    """One caller driving cli.main in-process, one request at a time."""

    def __init__(self, main):
        self.main = main

    def call(self, request):
        """Returns (exit code or None, stdout text, seconds, error or None)."""
        stdin, stdout = sys.stdin, sys.stdout
        sys.stdin = io.StringIO(request.body)
        out = sys.stdout = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            code = self.main(list(request.argv))
        except (Exception, SystemExit) as exc:
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            t1 = time.perf_counter()
            sys.stdin, sys.stdout = stdin, stdout
        return code, out.getvalue(), t1 - t0, error


class Answers:
    """Distinct answers per pool index, with how often each was given."""

    def __init__(self):
        self.seen = Counter()
        self.errors = Counter()

    def add(self, idx, code, text, error):
        if error is None:
            self.seen[(idx, code, text)] += 1
        else:
            self.errors[(idx, error)] += 1

    def check(self, pool):
        """(failed count, first failure reasons) over every answer given."""
        failed = sum(self.errors.values())
        reasons = [f"request {idx}: {err}" for (idx, err) in self.errors]
        for (idx, code, text), times in self.seen.items():
            reason = checker.check(pool[idx], code, text)
            if reason is not None:
                failed += times
                reasons.append(f"request {idx} ({pool[idx].tag}): {reason}")
        return failed, reasons[:5]

    def digest(self):
        h = hashlib.sha256()
        for idx, code, text in sorted(self.seen):
            h.update(f"{idx}:{code}:{text}".encode())
        return h.hexdigest()


def closed_loop(client, pool, seconds, answers):
    """Run the pool in rounds, every request once per round in order, until
    the window closes and at least MIN_ROUNDS rounds are done.  A reference
    step runs before the first request and after each one.

    Returns, per request, a (wall time, reference time) pair for each call,
    where the reference time is the mean of the steps on either side; then
    the rounds begun and the window.
    """
    samples = [[] for _ in pool]
    rounds = 0
    start = time.perf_counter()
    before = reference_seconds()
    while True:
        rounds += 1
        for idx, request in enumerate(pool):
            code, text, dt, error = client.call(request)
            after = reference_seconds()
            answers.add(idx, code, text, error)
            samples[idx].append((dt, (before + after) / 2))
            before = after
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_STRETCH * seconds or (rounds > MIN_ROUNDS and elapsed >= seconds):
                return samples, rounds, elapsed
        if rounds >= MIN_ROUNDS and elapsed >= seconds:
            return samples, rounds, elapsed


def one_pass(client, requests, answers, recorder=None):
    """Every request once, in order; returns (codes, output bytes, seconds)."""
    codes, sizes = [], []
    start = time.perf_counter()
    for idx, request in enumerate(requests):
        if recorder is not None:
            recorder.request = idx
        code, text, _, error = client.call(request)
        answers.add(idx, code, text, error)
        codes.append(code)
        sizes.append(len(text.encode()))
    return codes, sizes, time.perf_counter() - start


def traced_pass(cli, requests, answers):
    recorder = spans.Recorder()
    with recorder:
        client = Client(recorder.wrap("cli.main", cli.main))
        codes, sizes, seconds = one_pass(client, requests, answers, recorder)
    return recorder, codes, sizes, seconds


def _bits(result):
    values = []
    for attr in ("point", "certificate", "ray"):
        values.extend(getattr(result, attr, ()))
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


def layer_metrics(recorder, requests, codes, sizes):
    """Per-layer totals of one traced pass."""
    layer_s, layer_calls = Counter(), Counter()
    span_s, span_calls = Counter(), Counter()
    lp_s_by_tag = Counter()
    for name, req, dt in recorder.self_times():
        layer = name.split(".")[0]
        layer_s[layer] += dt
        layer_calls[layer] += 1
        span_s[name] += dt
        span_calls[name] += 1
        if name == "lp.solve_lp":
            lp_s_by_tag[requests[req].tag] += dt
    lp = recorder.lp_calls
    n_lp = len(lp)
    infeasible = sum(type(r).__name__ == "LPInfeasible" for _, r, _ in lp)
    m = {
        "lp.self_s": layer_s["lp"],
        "lp.calls": n_lp,
        "lp.cells_mean": (statistics.mean(len(p.constraints) * p.n_vars for p, _, _ in lp)
                          if lp else 0),
        "lp.result_bits_max": max((_bits(r) for _, r, _ in lp), default=0),
        "lp.infeasible_frac": infeasible / n_lp if n_lp else 0,
        "lp.calls_per_request": n_lp / len(requests),
    }
    for dim, gens in workloads.SEP_SHAPES:
        m[f"lp.self_s.{dim}x{gens}"] = lp_s_by_tag[f"{dim}x{gens}"]
    m.update({
        "interpolate.self_s": layer_s["interpolate"],
        "interpolate.calls": layer_calls["interpolate"],
        "convex_sep.self_s": layer_s["convex_sep"],
        "functionals.eval.calls": span_calls["functionals.LinFun.eval"],
        "functionals.eval.self_s": span_s["functionals.LinFun.eval"],
        "functionals.self_s": layer_s["functionals"],
        "finspace.self_s": layer_s["finspace"],
        "finspace.calls": layer_calls["finspace"],
        "valuations.self_s": layer_s["valuations"],
        "valuations.calls": layer_calls["valuations"],
        "cli.self_s": layer_s["cli"],
        "jsonio.decode_s": span_s["jsonio.decode"],
        "jsonio.encode_s": span_s["jsonio.encode"],
        "jsonio.calls": layer_calls["jsonio"],
        "extreal.ops": recorder.extreal_ops,
        "cli.output_bytes_mean": statistics.mean(sizes),
        "cli.exit0_count": codes.count(0),
        "cli.exit2_count": codes.count(2),
        "trace.requests": len(requests),
    })
    return m


def run_traced(cli, workload, pool, seconds, answers, spans_path, header):
    """Alternate untraced and traced passes over the trace set until the
    window closes; the difference is the tracing overhead."""
    requests = pool[: workload.trace_requests]
    plain = Client(cli.main)
    passes, overheads = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()
        _, _, untraced_s = one_pass(plain, requests, answers)
        gc.collect()
        recorder, codes, sizes, traced_s = traced_pass(cli, requests, answers)
        if not passes:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            recorder.dump(spans_path, header)
        passes.append(layer_metrics(recorder, requests, codes, sizes))
        overheads.append(traced_s / untraced_s - 1)
    # median_low reports one pass as measured; counts repeat exactly in every pass
    metrics = {name: statistics.median_low(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_frac"] = statistics.median_low(overheads)
    metrics["trace.passes"] = len(passes)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    readme = root / "README.md"
    if not (src / "conedual" / "cli.py").is_file() or not readme.is_file():
        return fail(f"run from the root of a conedual checkout ({src} or {readme} missing)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    phases = {}
    t0 = time.perf_counter()
    examples = preflight.parse_examples(readme.read_text(encoding="utf-8"))
    if not examples:
        return fail("no command-line examples found in README.md")
    problems = preflight.run_examples(examples, env)
    if problems:
        return fail("README examples disagree with the program:\n  " + "\n  ".join(problems))
    phases["preflight"] = time.perf_counter() - t0

    sys.path.insert(0, str(src))
    import conedual
    import conedual.cli as cli

    if Path(conedual.__file__).resolve().parent != (src / "conedual").resolve():
        return fail(f"imported conedual from {conedual.__file__}, not from {src}")

    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]
    pool = workloads.make_pool(workload, args.seed, workload.pool)
    answers = Answers()
    client = Client(cli.main)
    for idx, request in enumerate(pool[: workload.warmup]):
        code, text, _, error = client.call(request)
        answers.add(idx, code, text, error)
    phases["inputs_and_warmup"] = time.perf_counter() - t0

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(root),
        "source_digest": source_digest(src),
        "callers": 1,
        "loop": "closed",
    }
    t0 = time.perf_counter()
    if args.trace:
        spans_path = root / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics = run_traced(cli, workload, pool, args.seconds, answers, spans_path, stamp)
        units = {spec["name"]: spec["unit"] for spec in _spec()["per_layer"]}
        phases["traced_passes"] = time.perf_counter() - t0
    else:
        probes = setup_times(env, SETUP_PROBES)
        gc.collect()
        t1 = time.perf_counter()
        samples, rounds, window = closed_loop(client, pool, args.seconds, answers)
        t2 = time.perf_counter()
        probes += setup_times(env, SETUP_PROBES)
        # each request's latency: the median over its calls of the wall time
        # in reference steps, scaled to REF_MS a step
        scaled = [REF_MS / 1000 * statistics.median(dt / ref for dt, ref in s)
                  for s in samples if s]
        best = [min(dt for dt, _ in s) for s in samples if s]
        deciles = statistics.quantiles(scaled, n=10)
        metrics = {
            "setup_s": statistics.median(probes),
            "latency_p50_ms": 1000 * statistics.median(scaled),
            "latency_p90_ms": 1000 * deciles[8],
            "throughput_rps": len(scaled) / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {spec["name"]: spec["unit"] for spec in _spec()["end_to_end"]}
        phases["window"] = t2 - t1
        phases["setup_probes"] = time.perf_counter() - t0 - (t2 - t1)
        stamp["latency_samples"] = len(scaled)
        stamp["reference_ms_median"] = 1000 * statistics.median(
            ref for s in samples for _, ref in s)
        stamp["wall_best_ms"] = {
            "p50": 1000 * statistics.median(best),
            "p90": 1000 * statistics.quantiles(best, n=10)[8],
            "rps": len(best) / sum(best),
        }
        stamp["rounds"] = rounds
        stamp["window_rps"] = sum(map(len, samples)) / window

    t0 = time.perf_counter()
    failed, reasons = answers.check(pool)
    phases["check"] = time.perf_counter() - t0
    for reason in reasons:
        print(f"perfbench: wrong answer: {reason}", file=sys.stderr)
    outcomes = Counter()
    for (_, code, _), times in answers.seen.items():
        outcomes[code] += times
    attempted = sum(outcomes.values()) + sum(answers.errors.values())
    if not args.trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
    stamp.update({
        "failed_frac": failed / attempted,
        "exit_codes": {str(k): v for k, v in sorted(outcomes.items(), key=str)},
        "response_digest": answers.digest(),
        "phase_seconds": phases,
    })
    print(json.dumps(stamp, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _spec():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.exit(main())
