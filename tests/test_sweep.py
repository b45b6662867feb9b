import math
from types import SimpleNamespace

import numpy as np
import pytest

from lambda_capacity import sweep
from lambda_capacity.channel import NotDensityMatrix, _density_checks, density_mask, qubit_matrices
from lambda_capacity.lambda_system import PARAM_RULES, InvalidAlphas, InvalidAngle
from lambda_capacity.sweep import (
    Axis,
    DEFAULTS,
    InvalidSpec,
    InvalidStateAtPoint,
    SweepSpec,
    UnknownFigure,
    _block_ic,
    _grid_blocks,
    _params_valid,
    _point_objects,
    _states,
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
    # numpy allocates no array beyond sys.maxsize bytes: 2**60 float64 values are one byte too many
    with pytest.raises(InvalidSpec, match=r"^a grid of 1152921504606846976 points is too large to allocate$"):
        SweepSpec(axes=(Axis("theta", 0, 1, 2 ** 30), Axis("chi", 0, 1, 2 ** 30)))
    SweepSpec(axes=(Axis("theta", 0, 1, 2 ** 60 - 1),))  # a spec allocates nothing


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
    with pytest.raises(InvalidStateAtPoint, match=r"^invalid input state at rho11=0: negative eigenvalue"):
        grid_sweep(spec)
    # rho11 = 0.5, 0.6 are physical with |rho12| = 0.47; 0.7 is the first that is not
    spec = SweepSpec(
        axes=(Axis("theta", 0.0, TWO_PI, 3), Axis("rho11", 0.5, 0.9, 5)), fixed={"re_rho12": 0.47}
    )
    with pytest.raises(InvalidStateAtPoint, match=r"^invalid input state at theta=0, rho11=0\.7: negative eigenvalue"):
        grid_sweep(spec)


def test_sweep_rejects_first_unphysical_parameter_point():
    spec = SweepSpec(axes=(Axis("theta", 0.0, TWO_PI, 3), Axis("chi", 0.0, 2.0, 5)))
    with pytest.raises(InvalidAngle, match=r"^chi must lie in \[0, pi/2\], got 2\.0$"):
        grid_sweep(spec)
    spec = SweepSpec(axes=(Axis("chi", 0.0, 1.0, 4),), fixed={"theta": math.inf})
    with pytest.raises(InvalidAngle, match=r"^theta and phi must be finite, got \(inf, 0\.0\)$"):
        grid_sweep(spec)


def _scalar_error(point):
    """The error that the constructors raise at this point, or None."""
    try:
        _point_objects(point)
    except (NotDensityMatrix, InvalidAngle, InvalidAlphas) as err:
        return err
    return None


def test_block_validity_mask_matches_scalar_constructors():
    rng = np.random.default_rng(47)
    n = 600
    half_pi = math.pi / 2

    def sometimes(typical, edges):
        return np.where(rng.random(n) < 0.15, rng.choice(edges, n), typical)

    rho11 = sometimes(rng.uniform(0.01, 0.99, n), [0.0, 1.0, -1e-9, 1.0 + 1e-9, math.nan])
    # |rho12|^2 = rho11 (1 - rho11) + excess: just inside, on and just outside the boundary
    excess = rng.choice([-1e-9, -1e-10, 0.0, 1e-10, 1e-9], n)
    radius = np.sqrt(np.clip(rho11 * (1.0 - rho11) + excess, 0.0, None))
    angle = rng.uniform(0.0, TWO_PI, n)
    columns = {
        "theta": sometimes(rng.uniform(0.0, TWO_PI, n), [math.inf, -math.inf, math.nan, 0.0]),
        "chi": sometimes(
            rng.uniform(0.0, half_pi, n),
            [0.0, half_pi, np.nextafter(half_pi, 4.0), -1e-300, half_pi + 1e-12, math.nan],
        ),
        "phi": sometimes(rng.uniform(-math.pi, math.pi, n), [math.inf, math.nan]),
        "gamma_t": sometimes(rng.uniform(0.0, 8.0, n), [0.0, math.inf, -1e-12, -1.0, math.nan]),
        "asym": sometimes(rng.uniform(0.0, 2.0, n), [0.0, -1e-12, -1.0, math.inf, math.nan]),
        "rho11": rho11,
        "re_rho12": sometimes(radius * np.cos(angle), [1.7e308, math.inf]),
        "im_rho12": radius * np.sin(angle),
    }
    rho, state_valid = _states(columns)
    valid = _params_valid(columns) & state_valid
    errors = [_scalar_error({k: float(v[i]) for k, v in columns.items()}) for i in range(n)]
    assert valid.tolist() == [err is None for err in errors]
    assert 0.2 < valid.mean() < 0.8

    # each rejected point's error is the first rule that fails there, with the
    # rules evaluated over the whole block as the mask evaluates them
    fields = {name: columns[name] for name in ("theta", "chi", "phi", "gamma_t")}
    fields.update(gamma13=columns["asym"], gamma23=np.ones(n), delta_R=np.zeros(n))
    rules = [(error, template, holds(SimpleNamespace(**fields))) for error, template, holds in PARAM_RULES]
    checks = _density_checks(rho)
    for i, err in enumerate(errors):
        if err is None:
            continue
        at = SimpleNamespace(**{name: float(column[i]) for name, column in fields.items()})
        failing = [(error, template.format(p=at)) for error, template, passes in rules if not passes[i]]
        failing += [(NotDensityMatrix, message(i)) for passes, message in checks if not passes[i]]
        assert (type(err), str(err)) == failing[0]

    # a non-finite theta given as a fixed value rejects every point of the grid
    base = dict(DEFAULTS, theta=math.inf, rho11=0.3)
    chi = np.linspace(0.0, half_pi, 5)
    assert [block.tolist() for _, block in _grid_blocks(base, ["chi"], [chi])] == [[-math.inf] * 5]
    assert all(_scalar_error(dict(base, chi=value)) for value in chi.tolist())


def _boundary_coherences(rng, rho11_values, count):
    """Coherence magnitudes at |rho12|^2 = rho11 (1 - rho11) plus -1e-9 ... 1e-9, in random order."""
    excess = np.array([-1e-9, -1e-10, 0.0, 1e-10, 1e-9])
    on = np.sqrt(np.clip((rho11_values * (1.0 - rho11_values))[:, None] + excess, 0.0, None))
    return rng.permutation(np.concatenate([on.ravel(), rng.uniform(-0.6, 0.6, count)]))


def test_hoisted_state_mask_matches_per_point_mask(monkeypatch):
    rng = np.random.default_rng(71)
    half_pi = math.pi / 2
    rho11 = rng.permutation(np.concatenate([[0.0, 1.0, -1e-9, 1.0 + 1e-9], rng.uniform(0.05, 0.95, 5)]))
    states = rho11[(rho11 >= 0.0) & (rho11 <= 1.0)]
    coherence = _boundary_coherences(rng, states, 4)
    theta = rng.uniform(0.0, 2.0 * math.pi, 7)
    chi = np.concatenate([rng.uniform(0.0, half_pi, 5), [half_pi + 1e-12, -1e-300]])
    asym = np.array([0.0, 0.5, -1e-12, 2.0])
    fixed_rho11 = float(states[(states > 0.0) & (states < 1.0)][0])
    grids = [
        # (fixed values, axes): 1-axis, 2-axis and 3- and 4-parameter coarse grids
        ({"rho11": fixed_rho11}, {"re_rho12": coherence}),
        ({"rho11": 0.1, "re_rho12": 0.6}, {"theta": theta}),
        ({"rho11": 0.1, "re_rho12": 0.3}, {"theta": theta}),
        ({"rho11": 0.25}, {"theta": theta, "rho11": rho11}),
        ({"rho11": fixed_rho11}, {"im_rho12": coherence, "chi": chi}),
        ({}, {"rho11": rho11, "re_rho12": coherence}),
        ({"im_rho12": 0.05}, {"rho11": rho11, "theta": theta[:4], "re_rho12": coherence[:9]}),
        ({}, {"theta": theta[:3], "re_rho12": coherence[:9], "asym": asym, "im_rho12": coherence[-9:]}),
        ({"rho11": fixed_rho11, "phi": 0.3}, {"chi": chi, "theta": theta, "asym": asym, "gamma_t": [0.0, 2.0, math.inf]}),
        # no state axis: the default state, maximally mixed, serves every point
        ({}, {"theta": theta, "chi": chi}),
    ]
    mixed = []
    for fixed, axes in grids:
        base = dict(DEFAULTS, **fixed)
        names, values = list(axes), [np.asarray(v, dtype=float) for v in axes.values()]
        # every point's parameters and input state, built point by point
        mesh = np.meshgrid(*values, indexing="ij")
        columns = {name: np.full(mesh[0].size, value) for name, value in base.items()}
        columns.update({name: grid.ravel() for name, grid in zip(names, mesh)})
        per_point = qubit_matrices(columns["rho11"], columns["re_rho12"], columns["im_rho12"])
        valid = _params_valid(columns) & density_mask(per_point)

        # every grid here is one block: the physical points are evaluated as one batch
        blocks = list(_grid_blocks(base, names, values))
        assert [start for start, _ in blocks] == [0]
        ic = blocks[0][1]
        assert (ic != -math.inf).tolist() == valid.tolist()
        kept = {name: column[valid] for name, column in columns.items()}
        assert np.array_equal(ic[valid], _block_ic(kept, per_point[valid]))
        mixed.append(0 < valid.sum() < valid.size)

        # in blocks of 5 points the offsets step by 5 and the same points are physical
        monkeypatch.setattr(sweep, "BLOCK", 5)
        small = list(_grid_blocks(base, names, values))
        monkeypatch.undo()
        assert [start for start, _ in small] == list(range(0, valid.size, 5))
        small_ic = np.concatenate([block for _, block in small])
        assert (small_ic != -math.inf).tolist() == valid.tolist()
        assert np.allclose(small_ic[valid], ic[valid], rtol=0.0, atol=1e-12)
    # the fixed states |rho12| = 0.6 and 0.3 at rho11 = 0.1 lie outside and on the boundary
    assert mixed == [True, False, False, True, True, True, True, True, True, True]


def test_maximize_with_fixed_unphysical_state_rejects_every_point():
    with pytest.raises(InvalidSpec, match="every coarse-grid point over theta is unphysical"):
        maximize_ic(["theta"], {"theta": (0.0, TWO_PI)}, fixed={"rho11": 0.1, "re_rho12": 0.6})


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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: bounded Nelder-Mead clips the 1-D simplex onto the bound chi = pi/2",
)
def test_maximize_reaches_optimum_next_to_a_bound():
    # the coarse seed is chi = pi/2; the search returns it after 2 iterations
    # with I_c 0.539157, while chi = 1.5543 gives 0.539227
    fixed = {
        "theta": math.pi, "phi": 0.33, "asym": 0.44, "gamma_t": 3.92,
        "rho11": 0.22, "re_rho12": 0.07, "im_rho12": -0.03,
    }
    best = maximize_ic(["chi"], {"chi": (0.0, math.pi / 2)}, fixed=fixed)
    grid = grid_sweep(SweepSpec(axes=(Axis("chi", 0.0, math.pi / 2, 2001),), fixed=fixed))
    assert best.value >= grid.max_value - 1e-9


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


def test_maximize_rejects_all_unphysical_coarse_grid():
    # rho11 = 0.1 allows |rho12| <= 0.3: no point of [0.6, 0.9] is a state
    with pytest.raises(InvalidSpec, match="every coarse-grid point over re_rho12 is unphysical"):
        maximize_ic(["re_rho12"], {"re_rho12": (0.6, 0.9)}, fixed={"rho11": 0.1})


def test_maximize_rejects_unphysical_pinned_point():
    # lo == hi pins re_rho12 at 0.6, outside the disc |rho12| <= 0.3 that rho11 = 0.1 allows
    with pytest.raises(InvalidSpec, match=r"pinned, at the unphysical point re_rho12=0\.6$"):
        maximize_ic(["re_rho12"], {"re_rho12": (0.6, 0.6)}, fixed={"rho11": 0.1})
    with pytest.raises(InvalidSpec, match=r"point theta=1, chi=2$"):
        maximize_ic(["theta", "chi"], {"theta": (1.0, 1.0), "chi": (2.0, 2.0)})


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
