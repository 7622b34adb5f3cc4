"""Benchmark worker: runs one workload in this process and prints its result.

One client, closed loop: each request is one in-process
``minexp.cli.main([..., "--json"])`` call, sent only after the previous one
returned.  Stdout is captured and every report is checked (see checker.py).
A report byte-identical (by digest) to one already checked for the same
request is accepted without re-checking; any other report is checked in
full.

* ``--trace 0`` warms up for about a second, then makes whole passes over
  the pool until the summed request time reaches ``--seconds``.  Request
  times are scaled for the core's current speed (speed.py), and a
  request's latency is the median of its repetitions; the run reports
  throughput (pool size over the sum of those latencies), median and tail
  latency, and peak RSS;
* ``--trace 1`` warms up with one full pass, then alternates an untraced and
  a traced pass until ``--seconds`` of wall time have passed, and reports
  per-layer self times and counts per pass, plus traced over untraced
  throughput.  Every pass must state the same counts as the warm-up pass.

Warm-up requests are never timed.

Started by run.py with the repository's ``src`` first on ``sys.path``.  The
last line of stdout is a JSON object; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import checker
import minexp.cli
import speed
import tracer as tracing
import workloads

SPAN_DIR = Path(__file__).resolve().parent / "out"

# The tail is the highest percentile with at least ten samples beyond it, but
# never above p99: further out, a run holds too few samples for a steady value.
TAIL_CAP = 99.0
TAIL_BEYOND = 10
WARM_UP_S = 1.0
SEGMENT_S = 0.1

# The per-layer metrics every traced run reports.  Self time is reported as a
# share of the traced pass (trace.pass_s): a function a workload never calls
# then reads 0 as a ratio rather than as a time.
SELF_TIMES = (
    "cli.build_parser", "cli.main", "cli.run_formula", "cli.run_weighted", "cli.run_newton",
    "cli.run_resolve", "cli.run_verify", "cli.run_probe",
    "exponent.exponent_candidates", "exponent.normalize_degree_one",
    "resolution.simulate_resolution", "resolution.blowup_chart",
    "resolution.verify_valuation_inequality", "resolution.descent_chain",
    "newton.diagonal_entry", "newton.DiagonalResult.verify",
    "poly.parse_poly", "poly.probe_transversality",
)
CALLS = (
    "exponent.exponent_candidates", "resolution.blowup_chart", "resolution.descent_chain",
    "newton.diagonal_entry", "poly.parse_poly",
)
OUTPUT_COUNTS = (
    "resolution.blowups", "resolution.vj_checks", "resolution.tuples_checked",
    "resolution.chain_points", "newton.support_points", "poly.points_checked",
)


def tail_latency(latencies: list[float]) -> tuple[float, int, float]:
    """(percentile, samples beyond it, value) of the tail, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, min(math.ceil(TAIL_CAP / 100 * n), n - TAIL_BEYOND))
    return 100 * rank / n, n - rank, ordered[rank - 1]


class Client:
    """Sends requests from one pool, checks each report and keeps the tally."""

    def __init__(self, pool, cli):
        self.pool = pool
        self.cli = cli  # main is looked up per call, so a traced main is used once installed
        self.checker = checker.Checker(cli.REPORT_SCHEMA)
        self.verified: list[tuple[int, bytes] | None] = [None] * len(pool)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def send(self, index: int) -> tuple[float, str | None]:
        """Run one request; return its latency and its report if it was correct."""
        request = self.pool[index]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                code = self.cli.main([*request.argv, "--json"])
                error = None
            except Exception as err:  # a crash is a failed request, not a crashed benchmark
                code, error = None, err
            elapsed = perf_counter() - start
        text = out.getvalue()
        seen = (code, hashlib.blake2b(text.encode()).digest())
        self.attempted += 1
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        elif self.verified[index] == seen:
            return elapsed, text
        elif self.verified[index] is not None:
            problems = ["report differs from this request's earlier, checked report"]
        else:
            problems = self.checker.check(request, code, text)
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{' '.join(request.argv)[:120]}: {'; '.join(problems)}")
            return elapsed, None
        self.verified[index] = seen
        return elapsed, text

    def full_pass(self, pass_no: int, trace=None) -> tuple[float, Counter]:
        """One pass over the pool; returns busy seconds and the summed output counts."""
        busy = 0.0
        totals: Counter = Counter()
        for index, request in enumerate(self.pool):
            if trace is not None:
                trace.request = [pass_no, index]
            elapsed, text = self.send(index)
            busy += elapsed
            if text is not None:
                totals.update(checker.counts(request, text))
        return busy, totals


def run_untraced(client: Client, seconds: float) -> tuple[dict, dict]:
    """Whole passes until ``seconds`` of request time (two at least).

    Request times are scaled for the core's current speed (see speed.py),
    one segment of about ``SEGMENT_S`` at a time, and each request's latency
    is the median of its repetitions.
    """
    index = 0
    warm = 0.0
    while warm < WARM_UP_S:
        warm += client.send(index % len(client.pool))[0]
        index += 1
    repeats: list[list[float]] = [[] for _ in client.pool]
    segment: list[tuple[int, float]] = []
    segment_s = busy = scaled_busy = 0.0
    before = speed.reference_s()
    passes = 0
    while busy < seconds or passes < 2:
        for index in range(len(client.pool)):
            elapsed, _ = client.send(index)
            segment.append((index, elapsed))
            segment_s += elapsed
            if segment_s >= SEGMENT_S or index == len(client.pool) - 1:
                after = speed.reference_s()
                factor = speed.scale(before, after)
                for i, t in segment:
                    repeats[i].append(t * factor)
                busy += segment_s
                scaled_busy += segment_s * factor
                segment.clear()
                segment_s = 0.0
                before = after
        passes += 1
    latencies = [statistics.median(times) for times in repeats]
    percentile, beyond, tail = tail_latency(latencies)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_rps": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }, {
        "samples": f"{len(latencies)} requests, each the median of {passes} passes",
        "tail": f"p{percentile:.4g}, {beyond} samples beyond it",
        "core slowdown": f"x{busy / scaled_busy:.3f} against the reference core ({busy:.1f} s of requests)",
    }


def run_traced(client: Client, seconds: float, baseline: Counter) -> tuple[dict, dict, tracing.Tracer, bool]:
    trace = tracing.Tracer()
    ratios = []
    per_pass_calls = []
    consistent = True
    started = perf_counter()
    pass_no = 1
    while not ratios or perf_counter() - started < seconds:
        plain_busy, plain_counts = client.full_pass(pass_no)
        first_span, first_charts = len(trace.spans), trace.charts_built
        trace.install()
        try:
            traced_busy, traced_counts = client.full_pass(pass_no + 1, trace)
        finally:
            trace.uninstall()
        calls, _ = trace.summary(first_span)
        calls["resolution.charts_built"] = trace.charts_built - first_charts
        per_pass_calls.append(calls)
        ratios.append(plain_busy / traced_busy)
        consistent &= plain_counts == baseline and traced_counts == baseline
        pass_no += 2
    consistent &= all(calls == per_pass_calls[0] for calls in per_pass_calls)
    passes = len(ratios)
    _, self_s = trace.summary()
    total = sum(self_s.values())
    groups = Counter()
    for name, spent in self_s.items():
        groups[tracing.group_of(name)] += spent
    metrics = {"trace.pass_s": (total / passes, "s"), "trace.overhead_ratio": (statistics.median(ratios), "ratio")}
    metrics.update({f"{group}.self_share": (groups[group] / total, "share") for group in tracing.GROUP_NAMES})
    metrics.update({f"{name}.self_share": (self_s[name] / total, "share") for name in SELF_TIMES})
    metrics.update({f"{name}.calls": (per_pass_calls[0][name], "count") for name in CALLS})
    metrics["resolution.charts_built"] = (per_pass_calls[0]["resolution.charts_built"], "count")
    metrics.update({name: (baseline[name], "count") for name in OUTPUT_COUNTS})
    metrics["cli.output_bytes"] = (baseline["cli.output_bytes"], "bytes")
    notes = {
        "traced passes": passes,
        "dominant group": max(tracing.GROUP_NAMES, key=lambda g: groups[g]),
    }
    if not consistent:
        notes["counts"] = "differ between passes of one seed"
    return metrics, notes, trace, consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pool = workloads.build_pool(args.workload, args.seed)
    client = Client(pool, minexp.cli)
    consistent = True
    if args.trace:
        _, baseline = client.full_pass(0)
        metrics, notes, trace, consistent = run_traced(client, args.seconds, baseline)
        notes["stressed group"] = workloads.STRESSED[args.workload]
        SPAN_DIR.mkdir(exist_ok=True)
        span_path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        trace.write(span_path)
        notes["spans"] = str(span_path.relative_to(SPAN_DIR.parent.parent))
    else:
        metrics, notes = run_untraced(client, args.seconds)
    notes["problems"] = client.problems
    result = {
        "correct": client.failed == 0 and consistent,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "notes": notes,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
