"""minexp benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Runs each workload in its own single-threaded worker process (worker.py),
one at a time, from the ``src`` tree next to this directory.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run.  Every report the program prints is
checked; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``setup_s`` is the cold start every CLI invocation pays: a fresh interpreter
importing ``minexp.cli``, median of several starts.  All end-to-end times are
scaled for the drifting speed of a shared core (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_STARTS = 11
WORKER_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env.pop("MINEXP_SCAN_BOUNDS", None)  # an inherited value would resize verify
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict) -> float:
    """Median seconds for a fresh interpreter to import minexp.cli, each
    start scaled for the core's current speed (see speed.py)."""
    command = [sys.executable, "-c", "import minexp.cli"]
    subprocess.run(command, env=env, cwd=ROOT, check=True)  # fill the bytecode cache
    times = []
    before = speed.reference_s()
    for _ in range(SETUP_STARTS):
        start = perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        elapsed = perf_counter() - start
        after = speed.reference_s()
        times.append(elapsed * speed.scale(before, after))
        before = after
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    command = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    print(f"{workload} (seed {seed}, {seconds:g} s, trace {trace})", flush=True)
    metrics = {}
    if not trace:
        metrics["setup_s"] = {"value": measure_setup(env), "unit": "s"}
    result = run_worker(workload, seed, seconds, trace, env)
    metrics.update(result["metrics"])
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  failed_share = {share:.6g} ({result['failed']} of {result['attempted']} requests)")
    for key, value in result["notes"].items():
        if value:
            print(f"  {key}: {value}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "minexp" / "cli.py").is_file():
        print(f"minexp sources not found under {SRC}", file=sys.stderr)
        return 2

    env = _env()
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace, env)
    else:
        results = {w: run_one(w, args.seed, args.seconds, args.trace, env) for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric for w, r in results.items() for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
