"""The CSV and JSON grid writers against straightforward reference writers, byte for byte."""

import itertools
import json
import math

import numpy as np
import pytest

from lambda_capacity.cli import _fmt, format_csv, format_grid_json
from lambda_capacity.sweep import Axis, SweepResult, SweepSpec, figure_preset, grid_sweep


def reference_csv(result: SweepResult) -> str:
    names = [axis.name for axis in result.spec.axes]
    labels = [[_fmt(x) for x in axis.values().tolist()] for axis in result.spec.axes]
    rows = (
        ",".join(point) + "," + _fmt(v)
        for point, v in zip(itertools.product(*labels), result.values.ravel().tolist())
    )
    at = ", ".join(f"{name}={_fmt(result.argmax[name])}" for name in names)
    return "\n".join([",".join(names + ["Ic"]), *rows, f"# max Ic={_fmt(result.max_value)} at {at}"]) + "\n"


def _jsonable(x: float):
    return "inf" if math.isinf(x) else x


def reference_grid_json(result: SweepResult) -> str:
    doc = {
        "axes": [
            {"name": axis.name, "values": [_jsonable(v) for v in axis.values().tolist()]}
            for axis in result.spec.axes
        ],
        "values": result.values.tolist(),
        "max": {
            "Ic": result.max_value,
            "at": {k: _jsonable(v) for k, v in result.argmax.items()},
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _hand_built(axes, values) -> SweepResult:
    spec = SweepSpec(axes=axes)
    values = np.asarray(values, dtype=float).reshape([axis.points for axis in axes])
    best = int(np.argmax(values))
    at = np.unravel_index(best, values.shape)
    argmax = {axis.name: float(axis.values()[i]) for axis, i in zip(axes, at)}
    return SweepResult(spec=spec, values=values, argmax=argmax, max_value=float(values.flat[best]))


RESULTS = {
    **{figure: lambda figure=figure: grid_sweep(figure_preset(figure)) for figure in ("fig1a", "fig1b", "fig2a", "fig2b")},
    "one_axis": lambda: grid_sweep(SweepSpec(axes=(Axis("theta", 0.0, 2.0 * math.pi, 7),))),
    "gamma_t_to_inf": lambda: grid_sweep(
        SweepSpec(axes=(Axis("theta", 0.0, 2.0 * math.pi, 5), Axis("gamma_t", 0.0, math.inf, 6)))
    ),
    "one_axis_to_inf": lambda: grid_sweep(SweepSpec(axes=(Axis("gamma_t", 0.5, math.inf, 6),))),
    # values that print as -0.000000 before the sign rule, next to plain ones
    "signed_zeros": lambda: _hand_built((Axis("theta", 0.0, 1.0, 4),), [-1e-17, -0.0, 0.0, 1.5]),
    "signed_zeros_2d": lambda: _hand_built(
        (Axis("phi", -1e-7, 1e-7, 3), Axis("chi", 0.0, 1.0, 3)),
        [-1e-17, -0.0, 0.0, 1.5, -4e-7, -6e-7, 10.0, -10.0, -0.0],
    ),
    "negative_max": lambda: _hand_built((Axis("asym", 0.0, 1.0, 2),), [-0.0, -1e-17]),
}


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_writers_match_reference_bytes(name):
    result = RESULTS[name]()
    assert format_csv(result) == reference_csv(result)
    assert format_grid_json(result) == reference_grid_json(result)


def test_signed_zero_rows_print_unsigned():
    text = format_csv(RESULTS["signed_zeros"]())
    assert text.splitlines()[1:5] == [
        "0.000000,0.000000",
        "0.333333,0.000000",
        "0.666667,0.000000",
        "1.000000,1.500000",
    ]


def test_grid_json_spells_finite_values_as_json_does():
    # format_grid_json writes each value with %r, which is json's spelling of a finite float; the extremes of the
    # float range, a negative zero and the switch to exponent notation, next to plain values
    edges = [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 1e16, 9999999999999998.0, 1e-5,
             1.0000000000000002e-4, 0.1 + 0.2, -1.0]
    result = _hand_built((Axis("theta", 0.0, 1.0, 2), Axis("chi", 0.0, 1.0, 5)), edges)
    assert format_grid_json(result) == reference_grid_json(result)
    assert json.loads(format_grid_json(result))["values"] == [edges[:5], edges[5:]]


@pytest.mark.parametrize("name", sorted(name for name in RESULTS if not name.startswith(("signed", "negative"))))
def test_swept_grids_hold_only_finite_values(name):
    # the writers' %r spelling needs finite values: a sweep raises at an unphysical point rather than write -inf
    assert np.all(np.isfinite(RESULTS[name]().values))
