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
from pathlib import Path

import numpy as np

from .channel import NotDensityMatrix, validate_channel
from .lambda_system import InvalidAlphas, InvalidAngle, _lapack_eigvalsh3, _states, channel_map
from .linalg import NegativeProbability, NotNormalized, entropy_bits
from .sweep import (
    DEFAULTS,
    FIGURES,
    PARAM_NAMES,
    PARAMETERS,
    STATE_NAMES,
    Axis,
    InvalidSpec,
    InvalidStateAtPoint,
    NoConvergence,
    Optimum,
    SweepResult,
    SweepSpec,
    UnknownFigure,
    _point_objects,
    figure_preset,
    grid_sweep,
    maximize_ic,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VALIDATION = 5

# decay rates that compute and validate accept in place of asym; sweeps take asym only
RATE_KEYS = ("gamma13", "gamma23")
CHANNEL_KEYS = RATE_KEYS + tuple(name for name in PARAM_NAMES if name not in STATE_NAMES)
AXIS_KEYS = ("name", "start", "stop", "points")
# the config's top-level keys, in the order --dump-config writes them
SECTIONS = ("params", "input_state", "sweep", "optimize", "figure", "output", "format")

class ConfigError(ValueError):
    """Bad config file or flag combination."""


def _fmt(x: float) -> str:
    text = f"{x:.6f}"
    # a sign on a value that rounds to zero is formatting noise
    return "0.000000" if text == "-0.000000" else text


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if isinstance(value, str):
        if value in ("inf", "-inf", "nan"):  # the spellings _jsonable writes
            return float(value)
        raise ConfigError(f"{key}: expected a number or \"inf\", got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range
        raise ConfigError(f"{key}: integer out of float range") from None


def _numbers(section: dict) -> dict:
    return {key: _number(value, key) for key, value in section.items()}


def _check_keys(section: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _section(value, where: str, allowed: tuple[str, ...] | None = None) -> dict:
    """``value`` as the config object ``where``, with only ``allowed`` keys when given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    if allowed is not None:
        _check_keys(value, allowed, where)
    return value


def _load_file(path: str) -> dict:
    """The config at ``path``, checked, in the file's layout with its numbers as floats.

    ``params`` and ``input_state`` are always there, the maximally mixed
    input as an empty ``input_state``, and so is ``format``.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except ValueError as err:  # malformed JSON, or an integer literal over Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(raw, SECTIONS, "config")

    cfg = {"params": _numbers(_section(raw.get("params", {}), "params", CHANNEL_KEYS)), "input_state": {}}

    state = raw.get("input_state")
    if isinstance(state, dict):
        cfg["input_state"] = _numbers(_section(state, "input_state", STATE_NAMES))
    elif state not in (None, "maximally_mixed"):
        raise ConfigError(f"input_state must be \"maximally_mixed\" or an object, got {state!r}")

    if raw.get("sweep") is not None:
        sweep = _section(raw["sweep"], "sweep", ("axes", "fixed"))
        axes = sweep.get("axes", [])
        if not isinstance(axes, list):
            raise ConfigError("sweep.axes must be a list")
        cfg["sweep"] = {"axes": [], "fixed": {}}
        for i, entry in enumerate(axes):
            where = f"sweep.axes[{i}]"
            _section(entry, where, AXIS_KEYS)
            for want in AXIS_KEYS:
                if want not in entry:
                    raise ConfigError(f"{where} is missing {want!r}")
            points = entry["points"]
            if isinstance(points, bool) or not isinstance(points, int):
                raise ConfigError(f"{where}.points must be an integer")
            cfg["sweep"]["axes"].append(
                {
                    "name": str(entry["name"]),
                    "start": _number(entry["start"], "start"),
                    "stop": _number(entry["stop"], "stop"),
                    "points": points,
                }
            )
        cfg["sweep"]["fixed"] = _numbers(_section(sweep.get("fixed", {}), "sweep.fixed"))

    if raw.get("optimize") is not None:
        opt = _section(raw["optimize"], "optimize", ("free", "bounds"))
        free = opt.get("free", [])
        if not isinstance(free, list) or not all(isinstance(n, str) for n in free):
            raise ConfigError("optimize.free must be a list of parameter names")
        cfg["optimize"] = {"free": list(free), "bounds": {}}
        for name, pair in _section(opt.get("bounds", {}), "optimize.bounds").items():
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"optimize.bounds[{name!r}] must be a [lo, hi] pair")
            cfg["optimize"]["bounds"][name] = [_number(pair[0], name), _number(pair[1], name)]

    for key in ("figure", "output"):
        if key in raw:
            if not isinstance(raw[key], str):
                raise ConfigError(f"{key} must be a string")
            cfg[key] = raw[key]
    cfg["format"] = raw.get("format", "csv")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg['format']!r}")
    return cfg


def build_config(args: argparse.Namespace) -> dict:
    """The run's config: the config file, or an empty one, with the flags written into it."""
    cfg = _load_file(args.config) if args.config else {"params": {}, "input_state": {}, "format": "csv"}
    for name in PARAMETERS:
        value = getattr(args, name)
        if value is not None:
            cfg["input_state" if name in STATE_NAMES else "params"][name] = value
    if getattr(args, "figure", None):
        cfg["figure"] = args.figure
    if args.out:
        cfg["output"] = args.out
    if args.format:
        cfg["format"] = args.format
    return cfg


def _jsonable(value):
    """``value`` with every non-finite float spelled "inf", "-inf" or "nan", as configs and grids write it."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def dump_config(cfg: dict) -> str:
    """Serialize the merged config in SECTIONS order; reloading it reproduces the same run."""
    doc = {key: cfg[key] for key in SECTIONS if key in cfg}
    if not doc["params"]:
        del doc["params"]
    doc["input_state"] = cfg["input_state"] or "maximally_mixed"
    return json.dumps(_jsonable(doc), indent=2) + "\n"


def _point(cfg: dict) -> dict:
    """The run's parameter point: defaults, then params and input state.

    Given ``asym``, the rate keys are dropped; without it they set the decay rates.
    """
    point = {**DEFAULTS, **cfg["params"], **cfg["input_state"]}
    if "asym" in cfg["params"]:
        for key in RATE_KEYS:
            point.pop(key, None)
    return point


def _sweep_overrides(cfg: dict) -> dict:
    """Explicit params/state entries, translated to the sweep universe."""
    for key in cfg["params"]:
        if key in RATE_KEYS:
            raise ConfigError(f"{key} cannot be fixed in a sweep; use asym (ratio of decay rates)")
    return {**cfg["params"], **cfg["input_state"]}


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def format_csv(result: SweepResult) -> str:
    names = [axis.name for axis in result.spec.axes]
    # each axis value is formatted once and reused on every row it labels
    *outer, inner = [[_fmt(x) + "," for x in axis.values().tolist()] for axis in result.spec.axes]
    # every row in one formatting operation, its labels already in the template, then _fmt's sign rule on the value
    # column; a label is a formatted number, with no % in it.  The rows of one outer label are one join
    template = "".join(prefix + ("%.6f\n" + prefix).join(inner) + "%.6f\n"
                       for prefix in map("".join, itertools.product(*outer)))
    body = (template % tuple(result.values.ravel().tolist())).replace(",-0.000000\n", ",0.000000\n")
    at = ", ".join(f"{name}={_fmt(result.argmax[name])}" for name in names)
    return ",".join(names + ["Ic"]) + "\n" + body + f"# max Ic={_fmt(result.max_value)} at {at}\n"


def _json_list(items, depth: int) -> str:
    """Encoded JSON items as a list laid out the way ``json.dumps(indent=2)`` lays out one ``depth`` levels deep."""
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def format_grid_json(result: SweepResult) -> str:
    """The grid as the JSON document ``json.dumps(indent=2)`` writes, with "inf" for an infinite axis value.

    The grid's values are written through one ``%r`` template in
    ``_json_list``'s layout.  ``%r`` spells a float as json does only when
    it is finite; grid values are, because :func:`grid_sweep` raises on an
    unphysical point rather than return -inf there.
    """
    doc = {
        "axes": [
            {"name": axis.name, "values": axis.values().tolist()} for axis in result.spec.axes
        ],
        "values": None,  # a placeholder: the grid is encoded below
        "max": {"Ic": result.max_value, "at": result.argmax},
    }
    # one %r per value, nested from the innermost axis out as json.dumps(indent=2) nests the rows
    template = "%r"
    for depth in reversed(range(result.values.ndim)):
        template = _json_list([template] * result.values.shape[depth], depth + 1)
    grid = template % tuple(result.values.ravel().tolist())
    # no axis has null values, so the first "values": null is the placeholder
    return json.dumps(_jsonable(doc), indent=2).replace('"values": null', '"values": ' + grid, 1) + "\n"


def _aligned(rows, width: int) -> str:
    """One line per (label, text) row, each text starting at column ``width``."""
    return "".join(label.ljust(width) + text + "\n" for label, text in rows)


def run_compute(cfg: dict) -> int:
    params, rho = _point_objects(_point(cfg))
    (r11, r12), (_, r22) = rho.matrix.tolist()
    states = _states(params.theta, params.chi, params.phi, params.gamma_t, params.alpha1, r11.real, r22.real, r12)
    # printed spectra come from the one LAPACK entry: at a double eigenvalue the closed form is off by about sqrt(eps)
    spectra = _lapack_eigvalsh3((2,), *(np.array(pair) for pair in zip(*states)))
    s_out, s_e = entropy_bits(spectra).tolist()
    # (text label, JSON key, value); the atom purifies field and mirror, so the
    # 6x6 field-mirror state has the atom's spectrum and three zeros
    rows = (
        ("I_c", "Ic", s_out - s_e),
        ("S_out", "S_out", s_out),
        ("S_e", "S_e", s_e),
        ("rho_out spectrum", "rho_out_spectrum", spectra[0, ::-1].tolist()),
        ("rho_alpha spectrum", "rho_alpha_spectrum", spectra[1, ::-1].tolist() + [0.0, 0.0, 0.0]),
    )
    if cfg["format"] == "json":
        text = json.dumps({key: value for _, key, value in rows}, indent=2) + "\n"
    else:
        values = ((label, value if isinstance(value, list) else [value]) for label, _, value in rows)
        text = _aligned(((label, " ".join(map(_fmt, value))) for label, value in values), 19)
    _emit(text, cfg.get("output"))
    return EXIT_OK


def _run_grid(cfg: dict, axes: tuple[Axis, ...], fixed: dict) -> int:
    """Evaluate and write the grid over ``axes``, at ``fixed`` overridden by the run's params and input state."""
    result = grid_sweep(SweepSpec(axes=axes, fixed={**fixed, **_sweep_overrides(cfg)}))
    _emit(format_grid_json(result) if cfg["format"] == "json" else format_csv(result), cfg.get("output"))
    return EXIT_OK


def run_sweep(cfg: dict) -> int:
    sweep = cfg.get("sweep")
    if not (sweep and sweep["axes"]):
        raise ConfigError("sweep requires a config file with a sweep.axes list")
    return _run_grid(cfg, tuple(Axis(**axis) for axis in sweep["axes"]), sweep["fixed"])


def run_figure(cfg: dict) -> int:
    if not cfg.get("figure"):
        raise ConfigError("figure requires an id (--figure or config key \"figure\")")
    preset = figure_preset(cfg["figure"])
    return _run_grid(cfg, preset.axes, preset.fixed)


def _optimum_report(best: Optimum) -> str:
    rows = [(f"{name}*", _fmt(best.point[name])) for name in sorted(best.point)]
    return _aligned(rows + [("I_c*", _fmt(best.value)), ("iterations", str(best.iterations))], 19)


def run_optimize(cfg: dict) -> int:
    if "optimize" not in cfg:
        raise ConfigError("optimize requires a config file with an optimize.free list")
    try:
        best = maximize_ic(cfg["optimize"]["free"], cfg["optimize"]["bounds"], fixed=_sweep_overrides(cfg))
    except NoConvergence as err:
        _emit(_optimum_report(err.best), cfg.get("output"))
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    _emit(_optimum_report(best), cfg.get("output"))
    return EXIT_OK


def run_validate(cfg: dict) -> int:
    params, _ = _point_objects(_point(cfg))  # the input state is checked as compute checks it
    report = validate_channel(channel_map(params))
    rows = (
        ("trace deviation", f"{report.trace_deviation:.3e}"),
        ("hermiticity deviation", f"{report.hermiticity_deviation:.3e}"),
        ("min Choi eigenvalue", f"{report.min_choi_eigenvalue:.3e}"),
        ("result", "PASS" if report.passes else "FAIL"),
    )
    _emit(_aligned(rows, 23), cfg.get("output"))
    return EXIT_OK if report.passes else EXIT_VALIDATION


# each subcommand: its runner and its --help line
COMMANDS = {
    "compute": (run_compute, "single-point report: I_c, entropies, spectra"),
    "sweep": (run_sweep, "evaluate I_c on a parameter grid from a config file"),
    "figure": (run_figure, f"run one of the preset grids ({', '.join(FIGURES)})"),
    "optimize": (run_optimize, "maximize I_c over chosen parameters"),
    "validate": (run_validate, "check the channel's physicality diagnostics"),
}


@functools.cache  # parsing leaves the parser as it was, so one parser serves every call
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambda-capacity",
        description="Coherent information of the pulsed Lambda-emitter -> photon-field channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="write the report/grid to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), help="grid output format (default csv)")
        for param, (_, param_help) in PARAMETERS.items():
            p.add_argument("--" + param.replace("_", "-"), type=float, help=param_help)
        p.add_argument("--dump-config", help="write the merged effective config to this path")
        if name == "figure":
            p.add_argument("--figure", help="preset id: " + ", ".join(FIGURES))
    return parser


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
    NegativeProbability,
    NotNormalized,
    OSError,
    MemoryError,
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
        return COMMANDS[args.command][0](cfg)
    except _NUMERIC_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except _CONFIG_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
