"""Digest of the command line's output over a fixed corpus of 377 calls.

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
* ``--help`` of each of the five commands (5 calls);
* four optimize problems that the benchmark does not draw, with free
  coherence or with a box that leaves the physical region; three of them
  have four free parameters, a state number among them (4 calls).

The last four calls come after the others, so that a digest of a tree
without them still lines up with the first 373 lines.
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


# label -> optimize config: free coherence, or boxes past the disc |rho12|^2 <= rho11 (1 - rho11) or rho11 in [0, 1]
EXTRA_OPTIMIZE = {
    "theta,rho11,re_rho12,im_rho12 past the disc": {
        "params": {"chi": 1.2, "gamma_t": 2.5, "asym": 0.6},
        "optimize": {"free": ["theta", "rho11", "re_rho12", "im_rho12"],
                     "bounds": {"theta": [0.0, 2.0 * math.pi], "rho11": [0.1, 0.9], "re_rho12": [-0.5, 0.5],
                                "im_rho12": [-0.5, 0.5]}},
    },
    "chi,asym,re_rho12,im_rho12 inside": {
        "params": {"theta": 2.8, "phi": -0.4, "gamma_t": "inf"},
        "input_state": {"rho11": 0.3},
        "optimize": {"free": ["chi", "asym", "re_rho12", "im_rho12"],
                     "bounds": {"chi": [0.0, math.pi / 2], "asym": [0.0, 2.0], "re_rho12": [-0.2, 0.3],
                                "im_rho12": [-0.3, 0.2]}},
    },
    "theta,asym,rho11,re_rho12 past rho11 = 1": {
        "params": {"chi": 1.4, "phi": 0.9, "gamma_t": 4.0},
        "optimize": {"free": ["theta", "asym", "rho11", "re_rho12"],
                     "bounds": {"theta": [0.0, 2.0 * math.pi], "asym": [0.0, 2.0], "rho11": [0.0, 1.2],
                                "re_rho12": [-0.3, 0.3]}},
    },
    "theta,chi,re_rho12 past the disc": {
        "params": {"gamma_t": 3.0, "asym": 0.8},
        "input_state": {"rho11": 0.2, "im_rho12": 0.1},
        "optimize": {"free": ["theta", "chi", "re_rho12"],
                     "bounds": {"theta": [0.0, 2.0 * math.pi], "chi": [0.0, math.pi / 2], "re_rho12": [-0.6, 0.6]}},
    },
}


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
    for k, (label, doc) in enumerate(EXTRA_OPTIMIZE.items()):
        yield f"optimize {label}", ["optimize", "--config", _config(directory, f"opt-extra-{k}", doc)]


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
