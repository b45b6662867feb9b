import math

import numpy as np
import pytest

from lambda_capacity.sweep import (
    Axis,
    DEFAULTS,
    InvalidSpec,
    InvalidStateAtPoint,
    SweepSpec,
    UnknownFigure,
    figure_preset,
    grid_sweep,
    maximize_ic,
)

TWO_PI = 2.0 * math.pi


def test_axis_values_are_inclusive_linspace():
    assert np.allclose(Axis("theta", 0.0, 1.0, 5).values(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_axis_to_infinity_ends_exactly_there():
    values = Axis("gamma_t", 0.0, math.inf, 9).values()
    assert values[0] == 0.0
    assert math.isinf(values[-1])
    assert np.all(np.diff(values[:-1]) > 0)
    # uniform in the decayed fraction 1 - e^(-gamma_t)
    assert np.allclose(1.0 - np.exp(-values), np.linspace(0.0, 1.0, 9))


def test_spec_validation():
    good = Axis("theta", 0.0, TWO_PI, 5)
    with pytest.raises(InvalidSpec):
        SweepSpec(axes=())
    with pytest.raises(InvalidSpec):
        SweepSpec(axes=(good, Axis("chi", 0, 1, 3), Axis("phi", 0, 1, 3)))
    with pytest.raises(InvalidSpec):
        SweepSpec(axes=(Axis("bogus", 0, 1, 3),))
    with pytest.raises(InvalidSpec):
        SweepSpec(axes=(good, Axis("theta", 0, 1, 3)))
    with pytest.raises(InvalidSpec):
        SweepSpec(axes=(Axis("theta", 0, 1, 1),))
    with pytest.raises(InvalidSpec):
        SweepSpec(axes=(Axis("theta", 0, math.inf, 3),))
    with pytest.raises(InvalidSpec):
        SweepSpec(axes=(good,), fixed={"theta": 1.0})
    with pytest.raises(InvalidSpec):
        SweepSpec(axes=(good,), input_state="pure")


def test_single_axis_sweep_is_periodic_in_theta():
    result = grid_sweep(SweepSpec(axes=(Axis("theta", 0.0, TWO_PI, 5),)))
    assert result.values.shape == (5,)
    assert result.values[0] == pytest.approx(-1.0, abs=1e-9)
    assert result.values[-1] == pytest.approx(result.values[0], abs=1e-9)
    assert result.values[2] == pytest.approx(0.6887218755408672, abs=1e-9)
    assert result.argmax == {"theta": math.pi}
    assert result.max_value == result.values.max()


def test_two_point_axis():
    result = grid_sweep(SweepSpec(axes=(Axis("theta", 0.0, math.pi, 2),)))
    assert result.values.shape == (2,)
    assert result.max_value == result.values[1]


def test_two_axis_sweep_is_row_major():
    spec = SweepSpec(axes=(Axis("theta", 0.0, TWO_PI, 4), Axis("gamma_t", 0.0, 8.0, 3)))
    result = grid_sweep(spec)
    assert result.values.shape == (4, 3)
    # theta = 0 row: no excitation regardless of decay time
    assert np.allclose(result.values[0], -1.0, atol=1e-9)


def test_sweep_rejects_unphysical_state_points():
    spec = SweepSpec(axes=(Axis("rho11", 0.0, 1.0, 5),), fixed={"re_rho12": 0.4})
    with pytest.raises(InvalidStateAtPoint):
        grid_sweep(spec)


def test_diagonal_pure_inputs_never_gain_information():
    # rho11 at 0 or 1 is a pure input: output entropy equals entropy
    # exchange, so the balance cannot be positive
    spec = SweepSpec(
        axes=(Axis("theta", 0.0, TWO_PI, 7), Axis("rho11", 0.0, 1.0, 5)),
        fixed={"re_rho12": 0.0, "im_rho12": 0.0},
    )
    values = grid_sweep(spec).values
    assert np.all(values[:, 0] <= 1e-10)
    assert np.all(values[:, -1] <= 1e-10)


# ------------------------------------------------------------- optimization


def test_maximize_over_pulse_angle():
    best = maximize_ic(["theta"], {"theta": (0.0, TWO_PI)})
    assert best.point["theta"] == pytest.approx(math.pi, abs=1e-3)
    assert best.value == pytest.approx(0.6887218755408672, abs=5e-4)
    assert best.iterations > 0


def test_maximize_finds_single_tone_for_lone_decay_path():
    best = maximize_ic(["chi"], {"chi": (0.0, math.pi / 2)}, fixed={"asym": 0.0})
    assert best.point["chi"] == pytest.approx(math.pi / 2, abs=1e-3)
    assert best.value == pytest.approx(1.0, abs=1e-6)


def test_maximize_degenerate_bounds():
    best = maximize_ic(["theta"], {"theta": (0.0, 0.0)})
    assert best.point == {"theta": 0.0}
    assert best.value == pytest.approx(-1.0, abs=1e-9)
    assert best.iterations == 0


def test_maximize_rejects_bad_requests():
    with pytest.raises(InvalidSpec):
        maximize_ic([], {})
    with pytest.raises(InvalidSpec):
        maximize_ic(["theta", "chi", "phi", "gamma_t", "rho11"], {})
    with pytest.raises(InvalidSpec):
        maximize_ic(["theta"], {})
    with pytest.raises(InvalidSpec):
        maximize_ic(["theta"], {"theta": (0.0, math.inf)})
    with pytest.raises(InvalidSpec):
        maximize_ic(["bogus"], {"bogus": (0.0, 1.0)})
    with pytest.raises(InvalidSpec):
        maximize_ic(["theta"], {"theta": (0.0, 1.0)}, fixed={"theta": 0.5})


def test_maximize_rejects_unphysical_state_interior():
    # with rho11 pinned at 0.1 any |coherence| above 0.3 is unphysical;
    # the search must stay inside the feasible disc
    best = maximize_ic(
        ["re_rho12"], {"re_rho12": (-0.6, 0.6)}, fixed={"rho11": 0.1}
    )
    assert abs(best.point["re_rho12"]) <= 0.3 + 1e-6
    assert math.isfinite(best.value)


# ------------------------------------------------------------------ presets


def test_presets_have_documented_shapes():
    fig1a = figure_preset("fig1a")
    assert [a.name for a in fig1a.axes] == ["theta", "chi"]
    assert fig1a.fixed["rho11"] == 0.25
    assert fig1a.fixed["gamma_t"] == math.inf

    fig1b = figure_preset("fig1b")
    assert [a.name for a in fig1b.axes] == ["theta", "gamma_t"]
    assert fig1b.axes[1].stop == 8.0

    fig2a = figure_preset("fig2a")
    assert [a.name for a in fig2a.axes] == ["theta", "rho11"]

    fig2b = figure_preset("fig2b")
    assert [a.name for a in fig2b.axes] == ["asym", "chi"]
    assert fig2b.fixed["theta"] == math.pi
    for preset in (fig1a, fig1b, fig2a, fig2b):
        assert all(axis.points == 41 for axis in preset.axes)


def test_unknown_preset():
    with pytest.raises(UnknownFigure):
        figure_preset("fig9z")


def test_defaults_cover_every_parameter():
    assert set(DEFAULTS) == {
        "theta", "chi", "phi", "gamma_t", "rho11", "re_rho12", "im_rho12", "asym",
    }
