"""Command-line front end.

Subcommands: ``compute`` (single-point report), ``sweep`` (grid from a
config file), ``figure`` (canned grid presets), ``optimize`` (simplex
maximization), ``validate`` (channel physicality diagnostics).  A JSON
config file may supply anything a flag can, flags win on conflict, and
``--dump-config`` writes back the merged result so a run can be replayed
exactly.

Exit codes: 0 ok, 2 config error, 3 numeric or I/O failure,
4 optimizer did not converge, 5 channel validation failed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .channel import (
    DensityMatrix,
    NotDensityMatrix,
    OutputNotDensity,
    apply_channel,
    joint_output,
    maximally_mixed,
    qubit_state,
    validate_channel,
)
from .lambda_system import InvalidAlphas, InvalidAngle, LambdaParams, channel_map
from .linalg import ConvergenceFailure, NegativeProbability, NotHermitian, NotNormalized, NotSquare
from .sweep import (
    Axis,
    InvalidSpec,
    InvalidStateAtPoint,
    NoConvergence,
    SweepResult,
    SweepSpec,
    UnknownFigure,
    figure_preset,
    grid_sweep,
    maximize_ic,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VALIDATION = 5

CHANNEL_KEYS = ("gamma13", "gamma23", "theta", "chi", "phi", "gamma_t", "asym")
STATE_KEYS = ("rho11", "re_rho12", "im_rho12")


class ConfigError(ValueError):
    """Bad config file or flag combination."""


@dataclass
class RunConfig:
    """Fully merged run request (defaults + config file + flags)."""

    command: str
    params: dict = field(default_factory=dict)
    state: dict = field(default_factory=dict)
    sweep_axes: list | None = None
    sweep_fixed: dict = field(default_factory=dict)
    opt_free: list | None = None
    opt_bounds: dict = field(default_factory=dict)
    figure: str | None = None
    output: str | None = None
    fmt: str = "csv"


def _fmt(x: float) -> str:
    text = f"{x:.6f}"
    # a sign on a value that rounds to zero is formatting noise
    return "0.000000" if text == "-0.000000" else text


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if isinstance(value, str):
        if value == "inf":
            return math.inf
        raise ConfigError(f"{key}: expected a number or \"inf\", got {value!r}")
    return float(value)


def _check_keys(section: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _load_file(path: str, cfg: RunConfig) -> None:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(raw, ("params", "input_state", "sweep", "optimize", "figure", "output", "format"), "config")

    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    _check_keys(params, CHANNEL_KEYS, "params")
    for key, value in params.items():
        cfg.params[key] = _number(value, key)

    state = raw.get("input_state", None)
    if state is not None:
        if state == "maximally_mixed":
            cfg.state = {}
        elif isinstance(state, dict):
            _check_keys(state, STATE_KEYS, "input_state")
            cfg.state = {k: _number(v, k) for k, v in state.items()}
        else:
            raise ConfigError(f"input_state must be \"maximally_mixed\" or an object, got {state!r}")

    sweep = raw.get("sweep", None)
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError("sweep must be an object")
        _check_keys(sweep, ("axes", "fixed"), "sweep")
        axes = sweep.get("axes", [])
        if not isinstance(axes, list):
            raise ConfigError("sweep.axes must be a list")
        cfg.sweep_axes = []
        for i, entry in enumerate(axes):
            if not isinstance(entry, dict):
                raise ConfigError(f"sweep.axes[{i}] must be an object")
            _check_keys(entry, ("name", "start", "stop", "points"), f"sweep.axes[{i}]")
            for want in ("name", "start", "stop", "points"):
                if want not in entry:
                    raise ConfigError(f"sweep.axes[{i}] is missing {want!r}")
            points = entry["points"]
            if isinstance(points, bool) or not isinstance(points, int):
                raise ConfigError(f"sweep.axes[{i}].points must be an integer")
            cfg.sweep_axes.append(
                {
                    "name": str(entry["name"]),
                    "start": _number(entry["start"], "start"),
                    "stop": _number(entry["stop"], "stop"),
                    "points": points,
                }
            )
        fixed = sweep.get("fixed", {})
        if not isinstance(fixed, dict):
            raise ConfigError("sweep.fixed must be an object")
        cfg.sweep_fixed = {k: _number(v, k) for k, v in fixed.items()}

    opt = raw.get("optimize", None)
    if opt is not None:
        if not isinstance(opt, dict):
            raise ConfigError("optimize must be an object")
        _check_keys(opt, ("free", "bounds"), "optimize")
        free = opt.get("free", [])
        if not isinstance(free, list) or not all(isinstance(n, str) for n in free):
            raise ConfigError("optimize.free must be a list of parameter names")
        cfg.opt_free = list(free)
        bounds = opt.get("bounds", {})
        if not isinstance(bounds, dict):
            raise ConfigError("optimize.bounds must be an object")
        cfg.opt_bounds = {}
        for name, pair in bounds.items():
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"optimize.bounds[{name!r}] must be a [lo, hi] pair")
            cfg.opt_bounds[name] = [_number(pair[0], name), _number(pair[1], name)]

    if "figure" in raw:
        if not isinstance(raw["figure"], str):
            raise ConfigError("figure must be a string")
        cfg.figure = raw["figure"]
    if "output" in raw:
        if not isinstance(raw["output"], str):
            raise ConfigError("output must be a string")
        cfg.output = raw["output"]
    if "format" in raw:
        if raw["format"] not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {raw['format']!r}")
        cfg.fmt = raw["format"]


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, the optional config file, and flags into a RunConfig."""
    cfg = RunConfig(command=args.command)
    if args.config:
        _load_file(args.config, cfg)
    for key in ("theta", "chi", "phi", "gamma_t", "asym"):
        value = getattr(args, key, None)
        if value is not None:
            cfg.params[key] = float(value)
    for key in STATE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg.state[key] = float(value)
    if getattr(args, "figure", None):
        cfg.figure = args.figure
    if args.out:
        cfg.output = args.out
    if args.format:
        cfg.fmt = args.format
    return cfg


def dump_config(cfg: RunConfig) -> str:
    """Serialize the merged config; reloading it reproduces the same run."""
    doc: dict = {}
    if cfg.params:
        doc["params"] = {k: "inf" if math.isinf(v) else v for k, v in cfg.params.items()}
    doc["input_state"] = cfg.state if cfg.state else "maximally_mixed"
    if cfg.sweep_axes is not None:
        doc["sweep"] = {
            "axes": [
                {**axis, "stop": "inf" if math.isinf(axis["stop"]) else axis["stop"]}
                for axis in cfg.sweep_axes
            ],
            "fixed": cfg.sweep_fixed,
        }
    if cfg.opt_free is not None:
        doc["optimize"] = {"free": cfg.opt_free, "bounds": cfg.opt_bounds}
    if cfg.figure is not None:
        doc["figure"] = cfg.figure
    if cfg.output is not None:
        doc["output"] = cfg.output
    doc["format"] = cfg.fmt
    return json.dumps(doc, indent=2) + "\n"


def _lambda_params(cfg: RunConfig) -> LambdaParams:
    merged = {"gamma13": 1.0, "gamma23": 1.0}
    merged.update({k: v for k, v in cfg.params.items() if k != "asym"})
    if "asym" in cfg.params:
        merged["gamma13"] = cfg.params["asym"]
        merged["gamma23"] = 1.0
    return LambdaParams(**merged)


def _input_state(cfg: RunConfig) -> DensityMatrix:
    if not cfg.state:
        return maximally_mixed(2)
    return qubit_state(
        cfg.state.get("rho11", 0.5),
        cfg.state.get("re_rho12", 0.0),
        cfg.state.get("im_rho12", 0.0),
    )


def _sweep_overrides(cfg: RunConfig) -> dict:
    """Explicit params/state entries, translated to the sweep universe."""
    overrides: dict = {}
    for key, value in cfg.params.items():
        if key in ("gamma13", "gamma23"):
            raise ConfigError(f"{key} cannot be fixed in a sweep; use asym (ratio of decay rates)")
        overrides[key] = value
    overrides.update(cfg.state)
    return overrides


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def format_csv(result: SweepResult) -> str:
    names = [axis.name for axis in result.spec.axes]
    # each axis value is formatted once and reused on every row it labels
    labels = [[_fmt(x) + "," for x in axis.values().tolist()] for axis in result.spec.axes]
    prefixes = map("".join, itertools.product(*labels))
    values = result.values.ravel().tolist()
    # every row in one formatting operation, then _fmt's sign rule on the value column
    body = ("%s%.6f\n" * len(values)) % tuple(itertools.chain.from_iterable(zip(prefixes, values)))
    body = body.replace(",-0.000000\n", ",0.000000\n")
    at = ", ".join(f"{name}={_fmt(result.argmax[name])}" for name in names)
    return ",".join(names + ["Ic"]) + "\n" + body + f"# max Ic={_fmt(result.max_value)} at {at}\n"


def _jsonable(x: float):
    return "inf" if math.isinf(x) else x


def _json_list(items, depth: int) -> str:
    """Encoded JSON items as a list laid out the way ``json.dumps(indent=2)`` lays out one ``depth`` levels deep."""
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _json_row(row: list, depth: int) -> str:
    # without indent json.dumps runs the C encoder, which separates items with ", "
    return _json_list(json.dumps(row)[1:-1].split(", "), depth)


def format_grid_json(result: SweepResult) -> str:
    doc = {
        "axes": [
            {"name": axis.name, "values": [_jsonable(v) for v in axis.values().tolist()]}
            for axis in result.spec.axes
        ],
        "values": None,  # a placeholder: the grid is encoded row by row below
        "max": {
            "Ic": result.max_value,
            "at": {k: _jsonable(v) for k, v in result.argmax.items()},
        },
    }
    values = result.values.tolist()
    if result.values.ndim == 1:
        grid = _json_row(values, 1)
    else:
        grid = _json_list((_json_row(row, 2) for row in values), 1)
    # no axis has null values, so the first "values": null is the placeholder
    return json.dumps(doc, indent=2).replace('"values": null', '"values": ' + grid, 1) + "\n"


def run_compute(cfg: RunConfig) -> int:
    channel = channel_map(_lambda_params(cfg))
    rho = _input_state(cfg)
    rho_out = apply_channel(channel, rho)
    joint = joint_output(channel, rho)
    s_out = rho_out.entropy()
    s_e = joint.entropy()
    out_spectrum = rho_out.spectrum()
    joint_spectrum = joint.spectrum()
    if cfg.fmt == "json":
        text = json.dumps(
            {
                "Ic": s_out - s_e,
                "S_out": s_out,
                "S_e": s_e,
                "rho_out_spectrum": out_spectrum.tolist(),
                "rho_alpha_spectrum": joint_spectrum.tolist(),
            },
            indent=2,
        ) + "\n"
    else:
        text = "\n".join(
            [
                f"I_c                {_fmt(s_out - s_e)}",
                f"S_out              {_fmt(s_out)}",
                f"S_e                {_fmt(s_e)}",
                "rho_out spectrum   " + " ".join(_fmt(v) for v in out_spectrum),
                "rho_alpha spectrum " + " ".join(_fmt(v) for v in joint_spectrum),
            ]
        ) + "\n"
    _emit(text, cfg.output)
    return EXIT_OK


def _build_spec(cfg: RunConfig) -> SweepSpec:
    if cfg.sweep_axes is None or not cfg.sweep_axes:
        raise ConfigError("sweep requires a config file with a sweep.axes list")
    axes = tuple(Axis(a["name"], a["start"], a["stop"], a["points"]) for a in cfg.sweep_axes)
    fixed = dict(cfg.sweep_fixed)
    fixed.update(_sweep_overrides(cfg))
    return SweepSpec(axes=axes, fixed=fixed, input_state="maximally_mixed")


def run_sweep(cfg: RunConfig) -> int:
    result = grid_sweep(_build_spec(cfg))
    _emit(format_grid_json(result) if cfg.fmt == "json" else format_csv(result), cfg.output)
    return EXIT_OK


def run_figure(cfg: RunConfig) -> int:
    if not cfg.figure:
        raise ConfigError("figure requires an id (--figure or config key \"figure\")")
    preset = figure_preset(cfg.figure)
    overrides = _sweep_overrides(cfg)
    if overrides:
        fixed = dict(preset.fixed)
        fixed.update(overrides)
        preset = SweepSpec(axes=preset.axes, fixed=fixed, input_state=preset.input_state)
    result = grid_sweep(preset)
    _emit(format_grid_json(result) if cfg.fmt == "json" else format_csv(result), cfg.output)
    return EXIT_OK


def _optimum_report(point: dict, value: float, iterations: int) -> str:
    lines = [f"{name}*".ljust(19) + _fmt(point[name]) for name in sorted(point)]
    lines.append(f"I_c*               {_fmt(value)}")
    lines.append(f"iterations         {iterations}")
    return "\n".join(lines) + "\n"


def run_optimize(cfg: RunConfig) -> int:
    if cfg.opt_free is None:
        raise ConfigError("optimize requires a config file with an optimize.free list")
    bounds = {name: (lo, hi) for name, (lo, hi) in cfg.opt_bounds.items()}
    fixed = _sweep_overrides(cfg)
    for name in cfg.opt_free:
        fixed.pop(name, None)
    try:
        best = maximize_ic(cfg.opt_free, bounds, fixed=fixed, input_state="maximally_mixed")
    except NoConvergence as err:
        _emit(_optimum_report(err.point, err.value, err.iterations), cfg.output)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    _emit(_optimum_report(best.point, best.value, best.iterations), cfg.output)
    return EXIT_OK


def run_validate(cfg: RunConfig) -> int:
    report = validate_channel(channel_map(_lambda_params(cfg)))
    text = "\n".join(
        [
            f"trace deviation        {report.trace_deviation:.3e}",
            f"hermiticity deviation  {report.hermiticity_deviation:.3e}",
            f"min Choi eigenvalue    {report.min_choi_eigenvalue:.3e}",
            f"result                 {'PASS' if report.passes else 'FAIL'}",
        ]
    ) + "\n"
    _emit(text, cfg.output)
    return EXIT_OK if report.passes else EXIT_VALIDATION


@functools.cache  # parsing leaves the parser as it was, so one parser serves every call
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambda-capacity",
        description="Coherent information of the pulsed Lambda-emitter -> photon-field channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "compute": "single-point report: I_c, entropies, spectra",
        "sweep": "evaluate I_c on a parameter grid from a config file",
        "figure": "run one of the preset grids (fig1a, fig1b, fig2a, fig2b)",
        "optimize": "maximize I_c over chosen parameters",
        "validate": "check the channel's physicality diagnostics",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="write the report/grid to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), help="grid output format (default csv)")
        p.add_argument("--theta", type=float, help="total pulse action angle (radians)")
        p.add_argument("--chi", type=float, help="intensity-distribution angle in [0, pi/2]")
        p.add_argument("--phi", type=float, help="relative phase of the two pulse tones")
        p.add_argument("--gamma-t", dest="gamma_t", type=float, help="elapsed decay gamma*t (number or \"inf\")")
        p.add_argument("--asym", type=float, help="decay-rate ratio gamma13/gamma23")
        p.add_argument("--rho11", type=float, help="input-state population of level 1")
        p.add_argument("--re-rho12", dest="re_rho12", type=float, help="Re of the input coherence")
        p.add_argument("--im-rho12", dest="im_rho12", type=float, help="Im of the input coherence")
        p.add_argument("--dump-config", help="write the merged effective config to this path")
        if name == "figure":
            p.add_argument("--figure", help="preset id: fig1a, fig1b, fig2a or fig2b")
    return parser


_RUNNERS = {
    "compute": run_compute,
    "sweep": run_sweep,
    "figure": run_figure,
    "optimize": run_optimize,
    "validate": run_validate,
}

_CONFIG_ERRORS = (
    ConfigError,
    NotDensityMatrix,
    InvalidSpec,
    InvalidStateAtPoint,
    UnknownFigure,
    InvalidAngle,
    InvalidAlphas,
)
_NUMERIC_ERRORS = (
    OutputNotDensity,
    NotSquare,
    NotHermitian,
    ConvergenceFailure,
    NegativeProbability,
    NotNormalized,
    OSError,
)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as err:  # a malformed flag, reported by argparse
        return err.code
    try:
        cfg = build_config(args)
        if args.dump_config:
            Path(args.dump_config).write_text(dump_config(cfg))
        return _RUNNERS[cfg.command](cfg)
    except _NUMERIC_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except _CONFIG_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
