"""The benchmark's traced mode, run against the package as it stands.

``perfbench/tracer.py`` patches and reads names of the package from outside:
the module-level ``sweep.minimize`` (the package's own Nelder-Mead, which
returns scipy's ``OptimizeResult`` with the ``nfev`` and ``nit`` that the
tracer counts), the public functions of each module
(``cli.main``, ``build_config``, ``format_csv``, ...),
``DensityMatrix.__post_init__`` and the fields of ``LambdaParams``; its
import report needs ``scipy.optimize`` among the imports of
``lambda_capacity``.  A change that breaks one of them fails here, not only
in a traced benchmark run.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import lambda_capacity
from lambda_capacity import cli

ROOT = Path(__file__).resolve().parents[1]


def load_benchmark_tracer():
    """The benchmark's tracer, run from its source file as ``oracle.load_benchmark_reference`` runs the reference."""
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("benchmark_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_calls_report_every_layer(tmp_path):
    tracer = load_benchmark_tracer()
    config = tmp_path / "optimize.json"
    config.write_text(json.dumps({"optimize": {"free": ["theta"], "bounds": {"theta": [0.0, 2.0 * math.pi]}}}))
    recorder = tracer.Tracer()
    recorder.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in (["compute"], ["optimize", "--config", str(config)], ["validate"])]
    finally:
        recorder.uninstall()
    assert codes == [0, 0, 0]
    assert not hasattr(cli.main, "__wrapped__")

    spans = tmp_path / "spans.npz"
    recorder.save(spans)
    metrics = tracer.layer_metrics([tracer.load(spans)], rounds=1)
    for name in ("cli.main_s", "cli.config_s", "sweep.maximize_ic_s", "sweep.simplex_s", "channel.density_matrix_s"):
        assert metrics[name][0] > 0.0, name
    assert metrics["sweep.simplex_nfev"][0] > 0
    # validate builds the one channel, whose LambdaParams fields the trace file records
    assert metrics["lambda_system.distinct_channels"] == (1, "count")

    env = {**os.environ, "PYTHONPATH": str(Path(lambda_capacity.__file__).parents[1])}
    report = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import lambda_capacity"],
        env=env, capture_output=True, text=True, check=True,
    ).stderr
    imports = tracer.import_metrics([report])
    assert sorted(imports) == [
        "import.lambda_capacity_self_s", "import.numpy_s", "import.scipy_optimize_s", "import.total_s",
    ]
    assert all(value > 0.0 for value, _ in imports.values())
