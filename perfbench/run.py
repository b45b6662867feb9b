"""Benchmark of lambda-capacity's three user paths.

Run from the repository root:

    python3 perfbench/run.py --workload figures|optimize|cli_cold \
        --seed N --seconds S --trace 0|1

The package is used as shipped from ``src/`` (not installed).  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics with no
wrapper in place; ``--trace 1`` reports the per-layer metrics of a traced
run and its overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import lambda_capacity; print(time.perf_counter() - t)"


@dataclass
class Env:
    """Where the program lives and how its processes are started."""

    root: Path
    bench_dir: Path
    work_dir: Path
    child_env: dict

    def cli(self):
        import lambda_capacity.cli

        return lambda_capacity.cli


def make_env() -> Env:
    # The sweep pool stays at its default size, so the thread setting is cleared.
    os.environ.pop("LAMBDA_CAPACITY_THREADS", None)
    # One CPU for this process and every child.  The pool still starts
    # min(8, os.cpu_count()) threads, but they take turns on one core: with
    # two free cores the GIL hand-off between them made a preset call swing
    # between about 1.2 s and 2.2 s with the load of other tenants.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = str(SRC)
    OUT_DIR.mkdir(exist_ok=True)
    return Env(ROOT, BENCH_DIR, OUT_DIR, child_env)


def run_child(env: Env, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env.child_env, cwd=env.root,
                          capture_output=True, text=True, timeout=120, check=True)


def setup_seconds(env: Env) -> float:
    """Median cold ``import lambda_capacity`` over fresh processes."""
    return statistics.median(float(run_child(env, ["-c", IMPORT_PROBE]).stdout)
                             for _ in range(SETUP_SAMPLES))


def run_rounds(workload, seconds: float) -> list[list]:
    """Whole rounds for ``seconds``.

    A round starts only if one more round of the last round's length still
    ends within the time, and at least one round runs.
    """
    done = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        done.append(workload.round())
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > seconds:
            return done


def end_to_end(workload, done: list[list], setup_s: float) -> dict:
    ops = [op for ops in done for op in ops]
    if workload.call_per_round:
        calls = [sum(op.seconds for op in ops) for ops in done]
    else:
        calls = [op.seconds for op in ops]
    pointed = [op for op in ops if op.points]
    rss = [op.rss_mb for op in ops if op.rss_mb is not None]
    peak = max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "call_s": (statistics.median(calls), "s"),
        "points_per_s": (sum(op.points for op in pointed) / sum(op.seconds for op in pointed), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }


def traced(workload, env: Env, seconds: float) -> tuple[list[list], dict]:
    """Alternate untraced and traced rounds, in pairs, for ``seconds``.

    Pairing the rounds keeps drift in the machine's speed out of the
    tracing overhead.
    """
    import tracer

    recorder = None if workload.name == "cli_cold" else tracer.Tracer()
    spans_dir = OUT_DIR / f"spans-{workload.name}"
    spans_dir.mkdir(exist_ok=True)
    for old in spans_dir.glob("*.npz"):
        old.unlink()

    def one_round(traced_round: bool) -> tuple[list, float]:
        if recorder is None:
            workload.spans_dir = spans_dir if traced_round else None
        elif traced_round:
            recorder.install()
        else:
            recorder.uninstall()
        t = time.perf_counter()
        ops = workload.round()
        return ops, time.perf_counter() - t

    done, walls = [], {False: 0.0, True: 0.0}
    rounds = 0
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        for traced_round in (False, True):
            ops, wall = one_round(traced_round)
            done.append(ops)
            walls[traced_round] += wall
        rounds += 1
        pair = time.perf_counter() - t
        if time.perf_counter() - start + pair > seconds:
            break
    if recorder is not None:
        recorder.uninstall()
        recorder.save(spans_dir / "spans.npz")

    metrics = tracer.layer_metrics([tracer.load(f) for f in sorted(spans_dir.glob("*.npz"))], rounds)
    metrics.update(tracer.import_metrics(
        [run_child(env, ["-X", "importtime", "-c", "import lambda_capacity"]).stderr
         for _ in range(IMPORTTIME_SAMPLES)]))
    overhead = walls[True] - walls[False]
    metrics["trace.overhead_s"] = (overhead / rounds, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / walls[False], "%")
    return done, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figures", "optimize", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lambda_capacity" / "__init__.py").is_file():
        print(f"error: no lambda_capacity package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    env = make_env()
    workload = WORKLOADS[args.workload](args.seed, env)
    if args.workload != "cli_cold":
        env.cli()  # the in-process workloads import the package before timing
    if args.trace:
        done, metrics = traced(workload, env, args.seconds)
    else:
        setup_s = setup_seconds(env)
        done = run_rounds(workload, args.seconds)
        metrics = end_to_end(workload, done, setup_s)

    ops = [op for ops in done for op in ops]
    for op in ops:
        for problem in op.problems:
            print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
