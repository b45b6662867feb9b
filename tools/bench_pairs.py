"""Paired benchmark runs of a base commit and the working tree, for one workload.

Runs ``perfbench/run.py --trace 0`` in N pairs: one run in a ``git worktree``
of the base commit and one in the working tree around this script, with the
same seed in both runs of a pair and the side that runs first alternating
from pair to pair.  Every run lasts the ``run_seconds`` of ``BENCHMARK.json``,
the length its claim rules are set for.  Each run's report goes to stderr
as it ends.  Then it prints, for each end-to-end metric of
``BENCHMARK.json``, both sides' median and quartiles and how many pairs the
change won, ties counting for neither:

    python tools/bench_pairs.py --base HEAD~1 --workload optimize --pairs 10

A change is refused when, in some metric, its median is worse than the
base's by more than the metric's ``bound``, a fraction of the base's
median; the "within bound" column says whether the change stays within
it.  It is also refused when its runs spread too widely to tell: the
"steady" column says whether the change's interquartile distance is
within the same ``bound`` times the base's median.  A gain may be claimed
when the change wins at least nine tenths of the pairs and the medians
differ by more than the base's interquartile distance; the last column
says whether both hold.  Each tree's benchmark
writes only to its own ``perfbench/out/``, which git ignores.  The worktree
is made in a temporary directory and removed at the end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def report(stdout: str) -> dict:
    """The JSON report on the last line of a benchmark run's stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``, by ``statistics.quantiles``' default method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric over the (base, change) report pairs.

    Each row holds the metric's ``name`` and ``unit``, ``base`` and
    ``change`` as (q1, median, q3), ``wins``, the pairs in which the change
    is better in the metric's ``better`` direction, ``within_bound``:
    whether the change's median is no worse than the base's by more than
    the metric's ``bound`` times the base's median, ``steady``: whether the
    change's interquartile distance is within that same allowance, and
    ``claim``: whether the change wins at least nine tenths of the pairs and
    the medians differ by more than the base's interquartile distance, in
    its favour.
    """
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = [(base["metrics"][name]["value"], change["metrics"][name]["value"]) for base, change in pairs]
        base = quartiles([b for b, _ in values])
        change = quartiles([c for _, c in values])
        wins = sum(sign * (c - b) > 0.0 for b, c in values)
        gain, allowed = sign * (change[1] - base[1]), metric["bound"] * abs(base[1])
        rows.append({
            "name": name, "unit": metric["unit"], "base": base, "change": change, "wins": wins,
            "within_bound": gain >= -allowed, "steady": change[2] - change[0] <= allowed,
            "claim": wins >= 0.9 * len(pairs) and gain > base[2] - base[0],
        })
    return rows


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    return report(subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True).stdout)


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare the working tree with")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed; pair i runs seed + i")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]

    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base_tree), args.base],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            for i in range(args.pairs):
                seed = args.seed + i
                trees = (base_tree, ROOT) if i % 2 == 0 else (ROOT, base_tree)
                reports = {tree: run(tree, args.workload, seed, seconds) for tree in trees}
                pair = (reports[base_tree], reports[ROOT])
                pairs.append(pair)
                for side, r in zip(("base", "change"), pair):
                    print(f"pair {i + 1} seed {seed} {side}: {json.dumps(r)}", file=sys.stderr)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)], cwd=ROOT, check=True)

    print(f"{args.workload}: {len(pairs)} pairs of {seconds:g} s, base {args.base} -> working tree")
    print("metric  unit  base median [q1, q3]  change median [q1, q3]  change wins  within bound  steady  claim")
    for row in summarize(pairs, benchmark["end_to_end"]):
        (b1, b2, b3), (c1, c2, c3) = row["base"], row["change"]
        print(f"{row['name']}  {row['unit']}  {b2:.6g} [{b1:.6g}, {b3:.6g}]  {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"{row['wins']}/{len(pairs)}  {'yes' if row['within_bound'] else 'no'}  "
              f"{'yes' if row['steady'] else 'no'}  {'met' if row['claim'] else 'not met'}")
    return 0 if all(r["correct"] and r["failed"] == 0 for pair in pairs for r in pair) else 1


if __name__ == "__main__":
    sys.exit(main())
