"""Digest of the command line's output over a fixed corpus of 373 calls.

Prints one line per ``cli.main`` call: its label, its exit code, and the
sha256 of its stdout and of its stderr.  Run it on two trees and diff the
two outputs to show that a change keeps every output byte for byte:

    python tools/output_digest.py > digest.txt

The package is imported from ``src/`` next to this script.  The corpus is
drawn by the benchmark's own ``perfbench/workloads.py``, executed from its
source so that nothing is written under ``perfbench/``:

* the four figure presets, in CSV and in JSON (8 calls);
* the 40 optimize problems of seeds 501-510 (40 calls);
* ``compute`` and ``validate`` at the 80 cold-start points of seeds 1-10, in
  both formats, with decay parameters in a config file and the rest as
  flags, as the benchmark passes them (320 calls);
* ``--help`` of each of the five commands (5 calls).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lambda_capacity import cli  # noqa: E402


def _from_source(name: str, path: Path) -> types.ModuleType:
    module = types.ModuleType(name)
    sys.modules[name] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _config(directory: Path, name: str, doc: dict) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _calls(workloads: types.ModuleType, directory: Path):
    """(label, argv) for every call of the corpus."""
    for preset in workloads.PRESETS:
        for fmt in ("csv", "json"):
            yield f"figure {preset.figure} {fmt}", ["figure", "--figure", preset.figure, "--format", fmt]
    for seed in range(501, 511):
        for k, problem in enumerate(workloads.optimize_problems(np.random.default_rng(seed))):
            doc = {
                "params": {key: "inf" if math.isinf(v) else v for key, v in problem.fixed.items()},
                "input_state": problem.state if problem.state is not None else "maximally_mixed",
                "optimize": {"free": list(problem.free), "bounds": {key: list(b) for key, b in problem.free.items()}},
            }
            config = _config(directory, f"opt-{seed}-{k}", doc)
            yield f"optimize {seed} {problem.label}", ["optimize", "--config", config]
    for seed in range(1, 11):
        for k, point in enumerate(workloads.cold_points(np.random.default_rng(seed))):
            params = {key: "inf" if math.isinf(point[key]) else point[key] for key in workloads.CONFIG_KEYS}
            config = _config(directory, f"cold-{seed}-{k}", {"params": params})
            flags = workloads._flags({key: v for key, v in point.items() if key not in workloads.CONFIG_KEYS})
            for command in ("compute", "validate"):
                for fmt in ("csv", "json"):
                    yield f"{command} {seed}.{k} {fmt}", [command, "--config", config, "--format", fmt, *flags]
    for command in cli.COMMANDS:
        yield f"{command} --help", [command, "--help"]


def main() -> None:
    os.environ["COLUMNS"] = "100"  # argparse wraps --help to the terminal width
    sys.modules["reference"] = _from_source("reference", ROOT / "perfbench" / "reference.py")
    workloads = _from_source("benchmark_workloads", ROOT / "perfbench" / "workloads.py")
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in _calls(workloads, Path(tmp)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
            print(label, code, *digests)


if __name__ == "__main__":
    main()
