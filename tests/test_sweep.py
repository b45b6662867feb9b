import argparse
import functools
import itertools
import math
import sys
import types
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from lambda_capacity import cli, sweep
from lambda_capacity.channel import (
    DENSITY_MESSAGES,
    DENSITY_TOL,
    NotDensityMatrix,
    _coherence,
    _density_checks,
    _qubit_checks,
    qubit_state,
)
from lambda_capacity.lambda_system import PARAM_RULES, InvalidAlphas, InvalidAngle, LambdaParams
from lambda_capacity.sweep import (
    Axis,
    DEFAULTS,
    FIGURES,
    PARAMETERS,
    STATE_NAMES,
    InvalidSpec,
    InvalidStateAtPoint,
    NoConvergence,
    SweepSpec,
    UnknownFigure,
    _block_ic,
    _box_inside,
    _grid_blocks,
    _params_valid,
    _point_objects,
    _state_valid,
    _valid,
    figure_preset,
    grid_sweep,
    maximize_ic,
    minimize,
)
from oracle import load_benchmark_reference

TWO_PI = 2.0 * math.pi
MAX = sys.float_info.max
ARGSORT = np.argsort


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
        "re_rho12": sometimes(radius * np.cos(angle), [1e308, 1.7e308, MAX, 5e-324, math.inf, -math.inf]),
        "im_rho12": sometimes(radius * np.sin(angle), [1e308, -MAX, math.nan, math.inf, -math.inf]),
    }
    # the CLI's edge states, at the default parameters
    edge_states = [(0.5, 1e308, 1e308), (0.5, MAX, MAX), (0.5, MAX, 0.0), (MAX, 0.0, 0.0), (-1e300, 0.0, 0.0),
                   (0.5, 5e-324, -5e-324), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.0, -0.5)]
    edges = dict(zip(STATE_NAMES, np.array(edge_states).T))
    columns = {
        name: np.concatenate([column, edges.get(name, np.full(len(edge_states), DEFAULTS[name]))])
        for name, column in columns.items()
    }
    n += len(edge_states)
    valid = _valid(columns)
    points = [{k: float(v[i]) for k, v in columns.items()} for i in range(n)]
    errors = [_scalar_error(point) for point in points]
    assert valid.tolist() == [err is None for err in errors]
    assert 0.2 < valid.mean() < 0.8
    # a simplex step checks one point of Python floats with the same function
    assert [bool(_valid(point)) for point in points] == valid.tolist()
    # a grid block passes each fixed parameter as one Python number, which the masks broadcast: columns
    # shared at the values of one point, the others arrays, give the mask of the all-array block.  Each
    # column is shared alone, and all but one or two of them, as a 1- or 2-axis grid shares them
    for i in [*range(4), *range(n - len(edge_states), n)]:
        for size in (1, len(columns) - 2, len(columns) - 1):
            for shared in itertools.combinations(columns, size):
                numbers = {name: float(columns[name][i]) for name in shared}
                full = _valid({**columns, **{name: np.full(n, x) for name, x in numbers.items()}})
                assert _valid({**columns, **numbers}).tolist() == full.tolist()

    # each rejected point's error is the first rule that fails there, with the
    # rules evaluated over the whole block as the mask evaluates them
    fields = {name: columns[name] for name in ("theta", "chi", "phi", "gamma_t")}
    fields.update(gamma13=columns["asym"], gamma23=np.ones(n), delta_R=np.zeros(n))
    rules = [(error, template, holds(SimpleNamespace(**fields))) for error, template, holds in PARAM_RULES]
    # each state's entries as DensityMatrix holds them: complex
    rho11, rho12 = columns["rho11"].astype(complex), _coherence(columns["re_rho12"], columns["im_rho12"])
    entries = (rho11, rho12, rho12.conj(), 1.0 - rho11)
    with np.errstate(over="ignore", invalid="ignore"):
        checks = _density_checks(*entries)
    for i, err in enumerate(errors):
        if err is None:
            continue
        at = SimpleNamespace(**{name: float(column[i]) for name, column in fields.items()})
        failing = [(error, template.format(p=at)) for error, template, passes in rules if not passes[i]]
        failing += [
            (NotDensityMatrix, message.format(v=value[i]))
            for (passes, value), message in zip(checks, DENSITY_MESSAGES)
            if not passes[i]
        ]
        assert (type(err), str(err)) == failing[0]

    # the closed-form lowest eigenvalue of each state's Hermitian part, on the stack
    # and on each matrix alone, is LAPACK's to 1e-15 of the entries' scale
    rho = np.moveaxis(np.array(entries).reshape(2, 2, n), -1, 0)
    finite = np.isfinite(rho).all(axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian_part = np.where(finite[:, None, None], rho / 2 + rho.conj().swapaxes(1, 2) / 2, 0.0)
    lapack = np.linalg.eigvalsh(hermitian_part)[:, 0]
    scale = np.maximum(1.0, np.abs(rho).max(axis=(1, 2), initial=0.0, where=np.isfinite(rho)))
    one_at_a_time = np.array([_density_checks(*matrix.ravel().tolist())[3][1] for matrix in rho])
    resolved = finite & np.isfinite(lapack)
    assert resolved.sum() > 0.8 * n
    for lowest in (checks[3][1], one_at_a_time):
        assert np.all(np.abs(lowest - lapack)[resolved] <= 1e-15 * scale[resolved])

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


def test_grid_block_mask_and_values_match_each_point(monkeypatch):
    """The mask that ``_grid_blocks`` takes once per block is the constructors' verdict at every point."""
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
        # every point's parameters and input state, checked point by point by the constructors
        mesh = np.meshgrid(*values, indexing="ij")
        columns = {name: np.full(mesh[0].size, value) for name, value in base.items()}
        columns.update({name: grid.ravel() for name, grid in zip(names, mesh)})
        points = [{k: float(v[i]) for k, v in columns.items()} for i in range(mesh[0].size)]
        valid = np.array([_scalar_error(point) is None for point in points])

        # every grid here is one block: the physical points are evaluated as one batch
        blocks = list(_grid_blocks(base, names, values))
        assert [start for start, _ in blocks] == [0]
        ic = blocks[0][1]
        assert (ic != -math.inf).tolist() == valid.tolist()
        kept = {name: column[valid] for name, column in columns.items()}
        assert np.array_equal(ic[valid], _block_ic(kept))
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


def test_symmetric_emitter_optimum_holds_to_roundoff():
    # the benchmark's theta problem: the symmetric emitter at complete decay with a maximally mixed input, at
    # drawn chi and phi.  The optimum is 1.5 - h(1/4) bits.  The atom state's row 3 is zero, so every step
    # takes the atom's spectrum from a split, not from the closed form
    target = 1.5 + 0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)
    rng = np.random.default_rng(2802)
    for _ in range(60):
        fixed = {"chi": rng.uniform(0.0, math.pi / 2), "phi": rng.uniform(-math.pi, math.pi), "gamma_t": math.inf,
                 "asym": 1.0}
        best = maximize_ic(["theta"], {"theta": (0.0, TWO_PI)}, fixed)
        assert abs(best.value - target) <= 4.0 * np.finfo(float).eps


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: bounded Nelder-Mead clips the 1-D simplex onto the bound chi = pi/2",
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


# ------------------------------------------- the validity rule on a search box


# each name's draw range for a box centre and a fixed value: past the edges of its rule, or of the state disc
BOX_RANGES = {
    "theta": (-10.0, 10.0), "chi": (-0.2, math.pi / 2 + 0.2), "asym": (-0.2, 2.0), "gamma_t": (-0.2, 8.0),
    "rho11": (-0.05, 1.05), "re_rho12": (-0.55, 0.55), "im_rho12": (-0.55, 0.55),
}


@st.composite
def search_boxes(draw):
    """(base, box): bounds for 1-4 parameters around random centres, and the other parameters' values."""
    names = draw(st.lists(st.sampled_from(list(BOX_RANGES)), min_size=1, max_size=4, unique=True))
    box = {}
    for name in names:
        centre = draw(st.floats(*BOX_RANGES[name]))
        half = draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.05, 0.2, 0.6]))
        box[name] = (centre - half, centre + half)
    base = dict(DEFAULTS)
    for name in STATE_NAMES:
        if name not in box:
            special = st.sampled_from([0.0, 0.1, 0.5, 1.0, math.inf, math.nan])
            base[name] = draw(special | st.floats(*BOX_RANGES[name]))
    return base, box


def _points_of_box(base, box, rng):
    """Points of ``box`` as a simplex step holds them: its corners, one ulp inside each corner, and random points."""
    lo, hi = (np.array(ends) for ends in zip(*box.values()))
    corners = [np.where(pick, hi, lo) for pick in itertools.product((False, True), repeat=len(box))]
    inside = [np.where(corner == lo, np.nextafter(lo, hi), np.nextafter(hi, lo)) for corner in corners]
    between = [np.clip(lo + rng.random(len(box)) * (hi - lo), lo, hi) for _ in range(20)]
    return [{**base, **dict(zip(box, map(float, x)))} for x in [*corners, *inside, *between]]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(search_boxes(), st.integers(0, 2 ** 32 - 1))
# pure states at the corners: the lowest eigenvalue is 0 there, the margin's edge
@example((dict(DEFAULTS, re_rho12=0.0, im_rho12=0.0), {"rho11": (0.5, 1.0)}), 0)
@example((dict(DEFAULTS, rho11=0.5, im_rho12=0.0), {"re_rho12": (-0.5, 0.5)}), 0)
@example((dict(DEFAULTS, im_rho12=0.0), {"rho11": (0.0, 1.0), "chi": (0.0, math.pi / 2)}), 0)
# a fixed state number that is not finite fails at every corner
@example((dict(DEFAULTS, re_rho12=math.inf, im_rho12=0.0), {"rho11": (0.4, 0.6)}), 0)
@example((dict(DEFAULTS, rho11=0.5, im_rho12=math.nan), {"re_rho12": (-0.1, 0.1)}), 0)
def test_box_corners_decide_every_point_of_the_box(drawn, seed):
    base, box = drawn
    params_inside, state_inside = _box_inside(base, box)
    points = _points_of_box(base, box, np.random.default_rng(seed))
    if params_inside:
        assert all(_params_valid(point) for point in points)
    if state_inside:
        assert all(_state_valid(point) for point in points)
    # the parameter rules need no margin: a box whose corners all pass them is inside
    assert params_inside == all(_params_valid(point) for point in points[: 2 ** len(box)])


def _corner_at_the_state_tolerance():
    """rho11 just past the disc |rho12| <= 0.3, where the state's lowest eigenvalue is within 1e-15 above -DENSITY_TOL."""
    def lowest(rho11):
        return _qubit_checks(rho11, 0.3, 0.0)[-1][1]

    # the disc ends at rho11 = 0.9, where the lowest eigenvalue falls with slope 0.8
    rho11 = 0.9 + DENSITY_TOL / 0.8
    while lowest(rho11) < -DENSITY_TOL:
        rho11 = float(np.nextafter(rho11, 0.0))
    while lowest(float(np.nextafter(rho11, 1.0))) >= -DENSITY_TOL:
        rho11 = float(np.nextafter(rho11, 1.0))
    assert 0.0 <= lowest(rho11) + DENSITY_TOL < 1e-15
    return rho11


@pytest.fixture
def counted_steps(monkeypatch):
    """Record, for every ``sweep.minimize`` call, the mask calls its steps made and its evaluation count."""
    calls = {"params": 0, "state": 0}
    searches = []

    def counted(kind, mask):
        def wrapper(*args):
            calls[kind] += 1
            return mask(*args)
        return wrapper

    def search(f, x0, bounds):
        calls.update(params=0, state=0)
        result = minimize(f, x0, bounds)
        searches.append((dict(calls), result.nfev))
        return result

    monkeypatch.setattr(sweep, "params_mask", counted("params", sweep.params_mask))
    monkeypatch.setattr(sweep, "density_mask", counted("state", sweep.density_mask))
    monkeypatch.setattr(sweep, "minimize", search)
    return searches


def test_steps_check_only_what_the_box_corners_leave_open(counted_steps, monkeypatch):
    edge = _corner_at_the_state_tolerance()
    assert _box_inside(dict(DEFAULTS, re_rho12=0.3), {"rho11": (0.5, edge)}) == (True, False)
    cases = [
        # (free, bounds, fixed, parameters checked at every step, state checked at every step)
        (["theta", "chi"], {"theta": (0.0, TWO_PI), "chi": (0.0, math.pi / 2)}, {"rho11": 0.3, "re_rho12": 0.2},
         False, False),
        (["rho11", "re_rho12", "im_rho12"], {"rho11": (0.2, 0.8), "re_rho12": (-0.2, 0.2), "im_rho12": (0.0, 0.2)},
         {}, False, False),
        (["theta", "chi", "asym", "rho11"],
         {"theta": (0.0, TWO_PI), "chi": (0.0, math.pi / 2), "asym": (0.0, 2.0), "rho11": (0.0, 1.0)},
         {"gamma_t": 1.5}, False, False),
        (["chi"], {"chi": (0.0, 2.0)}, {}, True, False),
        (["re_rho12"], {"re_rho12": (-0.6, 0.6)}, {"rho11": 0.1}, False, True),
        (["gamma_t", "rho11", "re_rho12"], {"gamma_t": (-1.0, 4.0), "rho11": (0.0, 1.0), "re_rho12": (-0.6, 0.6)},
         {}, True, True),
        # the corner rho11 = edge passes the state's check, short of the margin: every step checks the state
        (["rho11"], {"rho11": (0.5, edge)}, {"re_rho12": 0.3}, False, True),
        # inside the region, but past a quarter of the float limit, where a trial point may be NaN
        (["gamma_t"], {"gamma_t": (1.75e308, 1.79e308)}, {}, True, True),
    ]

    def outcome(free, bounds, fixed):
        try:
            return maximize_ic(free, bounds, fixed)
        except sweep.NoConvergence as stopped:
            return "no convergence", stopped.best

    for free, bounds, fixed, params_open, state_open in cases:
        best = outcome(free, bounds, fixed)
        (calls, nfev), = counted_steps
        counted_steps.clear()
        assert calls["params"] == (nfev if params_open else 0)
        if params_open and state_open:
            # a step whose parameters fail skips the state check
            assert 0 < calls["state"] <= nfev
        else:
            assert calls["state"] == (nfev if state_open else 0)
        # a step that skips a check scores as it does with every check in place
        with monkeypatch.context() as patch:
            patch.setattr(sweep, "_box_inside", lambda base, box: (False, False))
            assert best == outcome(free, bounds, fixed)
        counted_steps.clear()


# ------------------------------------------ the coarse seed's entropy bound


def _full_grid(base, names, axis_values):
    """The coarse grid with every point evaluated: the seed before its bound on I_c prunes it."""
    return np.concatenate([block for _, block in _grid_blocks(base, names, axis_values)])


def _search_outcome(free, bounds, fixed):
    """``maximize_ic``'s result, or the class, message and best point of what it raised, as a repr: bit for bit."""
    try:
        return repr(maximize_ic(free, bounds, fixed))
    except (InvalidSpec, NoConvergence) as err:
        return repr((type(err).__name__, str(err), getattr(err, "best", None)))


# the symmetric emitter; a noiseless channel, on which I_c = S(rho) up to roundoff; a partial decay
CHANNELS = ({}, {"asym": 0.0}, {"phi": 0.7, "gamma_t": 1.3, "asym": 0.4})


@st.composite
def coarse_problems(draw):
    """(free, bounds, fixed): a box over 1-4 parameters, most often four with a state number among them."""
    count = draw(st.sampled_from([1, 2, 3, 4, 4, 4]))
    free = draw(st.lists(st.sampled_from(list(BOX_RANGES)), min_size=count, max_size=count, unique=True))
    bounds = {}
    for name in free:
        centre = draw(st.floats(*BOX_RANGES[name]))
        half = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.2, 0.6]))
        bounds[name] = (centre - half, centre + half)
    fixed = dict(draw(st.sampled_from(CHANNELS)))
    for name in STATE_NAMES:
        fixed[name] = draw(st.sampled_from([0.0, 0.1, 0.5]) | st.floats(*BOX_RANGES[name]))
    return free, bounds, {name: value for name, value in fixed.items() if name not in bounds}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coarse_problems())
# the benchmark's 4-parameter problem, seed 1: two passes, 625 of its 6,561 coarse points evaluated
@example((["theta", "chi", "asym", "rho11"],
          {"theta": (0.0, TWO_PI), "chi": (0.0, math.pi / 2), "asym": (0.0, 2.0), "rho11": (0.0, 1.0)},
          {"phi": 0.3116063297162208, "gamma_t": 1.1929137927014786, "re_rho12": 0.0, "im_rho12": 0.0}))
# free coherence in a box that leaves the disc |rho12|^2 <= rho11 (1 - rho11): some points unphysical
@example((["theta", "rho11", "re_rho12", "im_rho12"],
          {"theta": (0.0, TWO_PI), "rho11": (0.1, 0.9), "re_rho12": (-0.5, 0.5), "im_rho12": (-0.5, 0.5)},
          {"chi": 1.2, "gamma_t": 2.5, "asym": 0.6}))
# a noiseless channel, on which I_c meets its bound up to roundoff: without the margin SIMPLEX_TOL a point whose I_c
# is the larger by roundoff is dropped
@example((["phi", "gamma_t", "theta", "rho11"],
          {"phi": (-1.0, 1.0), "gamma_t": (40.0, 60.0), "theta": (math.pi - 1e-9, math.pi + 1e-9),
           "rho11": (-0.12308811608136683, 0.7832218709460759)},
          {"asym": 0.0}))
# no coarse point is a state
@example((["theta", "chi", "asym", "re_rho12"],
          {"theta": (0.0, TWO_PI), "chi": (0.0, math.pi / 2), "asym": (0.0, 2.0), "re_rho12": (0.6, 0.9)},
          {"rho11": 0.1}))
def test_pruned_seed_searches_as_the_full_grid_does(problem):
    free, bounds, fixed = problem
    pruned = _search_outcome(free, bounds, fixed)
    with mock.patch.object(sweep, "_pruned_grid", _full_grid):
        assert _search_outcome(free, bounds, fixed) == pruned


class _Seeded(Exception):
    """Raised in place of the simplex search, once the coarse seed is chosen."""


def test_pruned_seed_evaluates_only_points_that_can_hold_the_maximum(monkeypatch):
    passes, bounds_taken, block_checks = [], [], []
    grid_blocks, states, valid = sweep._grid_blocks, sweep._states, sweep._valid

    def counted_blocks(base, names, axis_values, flat=None):
        passes.append(None if flat is None else len(flat))
        return grid_blocks(base, names, axis_values, flat)

    def counted_states(*args):
        bounds_taken.append(None)
        return states(*args)

    def counted_valid(columns):
        block_checks.append(None)
        return valid(columns)

    def seeded(f, x0, bounds):
        raise _Seeded

    monkeypatch.setattr(sweep, "_grid_blocks", counted_blocks)
    monkeypatch.setattr(sweep, "_states", counted_states)
    monkeypatch.setattr(sweep, "_valid", counted_valid)
    monkeypatch.setattr(sweep, "minimize", seeded)

    def seed_cost(free, bounds, fixed):
        # (the points of each pass over the grid, None for the whole grid; bounds computed) by one search's seed
        passes.clear()
        bounds_taken.clear()
        block_checks.clear()
        with pytest.raises(_Seeded):
            maximize_ic(list(free), bounds, fixed)
        # the whole grid checks each of its blocks; a pruned grid's passes take points already checked
        blocks = math.ceil(sweep.COARSE_POINTS ** len(free) / sweep.BLOCK)
        assert len(block_checks) == (blocks if passes == [None] else 0)
        return passes[:], len(bounds_taken)

    def problems(seed):
        found = _benchmark_workloads(monkeypatch).optimize_problems(np.random.default_rng(seed))
        assert [problem.label for problem in found][2:] == ["theta,chi,gamma_t", "theta,chi,asym,rho11"]
        return [(p.free, p.free, {**p.fixed, **(p.state or {})}) for p in found]

    # the 4-parameter grid: the first pass, the 128 points of highest bound, holds a value above every other bound
    _, _, three, four = problems(2)
    assert seed_cost(*four) == ([128], 1)
    # seed 1's emitter (gamma_t = 1.19) keeps its best coarse value at 0.32, which 497 more bounds reach
    assert seed_cost(*problems(1)[3]) == ([128, 497], 1)
    # no free state number, or a grid of one block: every point, and no bound
    assert seed_cost(*three) == ([None], 0)
    state_grid = (["rho11", "re_rho12"], {"rho11": (0.2, 0.8), "re_rho12": (-0.2, 0.2)}, {"theta": 2.0})
    assert seed_cost(*state_grid) == ([None], 0)


def test_ic_bound_holds_at_physical_points():
    rng = np.random.default_rng(27)
    n = 20_000

    def draw(low, high, *edges):
        # uniform values, a quarter of them replaced by the range's edge cases
        values = rng.uniform(low, high, n)
        edge = rng.random(n) < 0.25
        values[edge] = rng.choice([low, high, *edges], np.count_nonzero(edge))
        return values

    rho11 = draw(0.0, 1.0, 0.5)
    # coherence up to the edge of the disc |rho12|^2 <= rho11 (1 - rho11): pure states included
    radius = np.sqrt(rho11 * (1.0 - rho11)) * draw(0.0, 1.0)
    angle = rng.uniform(0.0, TWO_PI, n)
    columns = {
        "theta": draw(0.0, TWO_PI, math.pi, math.pi / 2), "chi": draw(0.0, math.pi / 2), "phi": draw(-math.pi, math.pi),
        "gamma_t": draw(0.0, 8.0, math.inf, 50.0), "asym": draw(0.0, 2.0, 1.0),
        "rho11": rho11, "re_rho12": radius * np.cos(angle), "im_rho12": radius * np.sin(angle),
    }
    assert np.all(sweep._valid(columns))
    ic, bound = _block_ic(columns), sweep._ic_bound(columns)
    # the margin of the pruned seed is SIMPLEX_TOL; the bound must hold to far less
    assert np.max(ic - bound) < 1e-12
    # it is attained: a noiseless channel (complete decay into one mode, a pi pulse) sends rho whole, I_c = S(rho)
    noiseless = {**columns, "theta": math.pi, "chi": math.pi / 2, "gamma_t": math.inf, "asym": 0.0, "re_rho12": 0.0,
                 "im_rho12": 0.0}
    assert np.allclose(_block_ic(noiseless), sweep._ic_bound(noiseless), rtol=0.0, atol=1e-12)


# ------------------------------------------------ simplex against scipy's


def _scipy_minimize(f, x0, bounds):
    """The oracle: scipy's bounded Nelder-Mead with the options that ``sweep.minimize`` documents.

    Its vertex sort is made stable, as ``sweep.minimize``'s is: ``np.argsort``'s
    default sort orders tied vertices differently on different CPUs.
    """
    options = {
        "xatol": sweep.SIMPLEX_TOL,
        "fatol": sweep.SIMPLEX_TOL,
        "maxiter": sweep.MAX_ITERATIONS,
        "maxfev": 4 * sweep.MAX_ITERATIONS,
    }
    # scipy subtracts inf from inf on a simplex whose every vertex is unphysical
    with np.errstate(invalid="ignore"), mock.patch.object(np, "argsort", functools.partial(ARGSORT, kind="stable")):
        return scipy.optimize.minimize(f, np.array(x0, dtype=float), method="Nelder-Mead", bounds=bounds,
                                       options=options)


def _same_search(search, f, x0, bounds):
    """``search``'s result, after checking it is scipy's to the last bit and that it calls ``f`` inside ``bounds`` only.

    ``maximize_ic`` skips every validity check that the corners of its box
    pass, which is exact only because no trial point leaves the box.
    """
    points = []

    def recorded(x):
        points.append(list(x))
        return f(x)

    ours, theirs = search(recorded, x0, bounds), _scipy_minimize(f, x0, bounds)
    assert len(points) == ours.nfev
    assert all(lo <= v <= hi for x in points for v, (lo, hi) in zip(x, bounds, strict=True))
    assert np.array_equal(ours.x, theirs.x)
    assert (ours.fun, ours.nit, ours.nfev, ours.success) == (theirs.fun, theirs.nit, theirs.nfev, theirs.success)
    return ours


@pytest.fixture
def checked_searches(monkeypatch):
    """Route every ``sweep.minimize`` call through the scipy comparison; collects (x0, bounds, result)."""
    searches = []

    def checked(f, x0, bounds):
        result = _same_search(minimize, f, x0, bounds)
        searches.append((list(x0), list(bounds), result))
        return result

    monkeypatch.setattr(sweep, "minimize", checked)
    return searches


def _benchmark_workloads(monkeypatch):
    """The benchmark's workloads module, run from its source file, so that no bytecode lands next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = types.ModuleType("benchmark_workloads")
    monkeypatch.setitem(sys.modules, "reference", load_benchmark_reference())
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture
def benchmark_problems(monkeypatch):
    """The benchmark's 40 optimize problems (seeds 501-510), drawn by its own source file."""
    module = _benchmark_workloads(monkeypatch)
    return [p for seed in range(501, 511) for p in module.optimize_problems(np.random.default_rng(seed))]


def test_simplex_is_scipys_on_benchmark_problems(checked_searches, benchmark_problems):
    for problem in benchmark_problems:
        maximize_ic(list(problem.free), problem.free, {**problem.fixed, **(problem.state or {})})
    assert len(checked_searches) == len(benchmark_problems) == 40


def test_simplex_is_scipys_when_seeded_on_a_bound(checked_searches):
    rng = np.random.default_rng(7)
    for _ in range(30):
        rho11 = rng.uniform(0.1, 0.9)
        radius = rng.uniform(0.0, 1.0) * math.sqrt(rho11 * (1.0 - rho11))
        fixed = {
            "phi": rng.uniform(-math.pi, math.pi), "asym": rng.uniform(0.1, 2.0),
            "gamma_t": math.inf if rng.random() < 0.5 else rng.uniform(0.0, 8.0),
            "rho11": rho11, "re_rho12": radius, "im_rho12": 0.0,
        }
        maximize_ic(["theta", "chi"], {"theta": (0.0, TWO_PI), "chi": (0.0, math.pi / 2)}, fixed)
    on_bound = [x0 for x0, bounds, _ in checked_searches if any(v in b for v, b in zip(x0, bounds))]
    assert len(on_bound) >= 10


def test_simplex_is_scipys_on_unphysical_plateaus(checked_searches):
    # the box holds coherences outside the disc |rho12|^2 <= rho11 (1 - rho11): there
    # the objective is +inf, and vertices tie
    rng = np.random.default_rng(11)
    for _ in range(20):
        fixed = {"theta": rng.uniform(0.5, TWO_PI), "chi": rng.uniform(0.0, math.pi / 2), "gamma_t": 2.0}
        maximize_ic(["rho11", "re_rho12"], {"rho11": (0.0, 1.0), "re_rho12": (-0.6, 0.6)}, fixed)
    assert len(checked_searches) == 20
    # a plateau everywhere but near the seed: every step ties, and shrinks
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4) * 3:
        low = rng.uniform(-1.0, 0.0, n)
        bounds = list(zip(low.tolist(), (low + rng.uniform(0.5, 2.0, n)).tolist()))
        x0 = rng.uniform(low, low + 0.5).tolist()

        def well(x, x0=x0):
            return 0.0 if max(abs(a - b) for a, b in zip(x, x0)) < 1e-3 else math.inf

        _same_search(minimize, well, x0, bounds)


def test_simplex_evaluates_only_points_of_the_box():
    # bowls centred outside random boxes pull every search onto the bounds; half the seeds start on a bound
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4) * 5:
        low = rng.uniform(-2.0, 1.0, n)
        high = low + rng.choice([1e-9, 0.1, 1.0, 3.0], n)
        bounds = list(zip(low.tolist(), high.tolist()))
        centre = rng.uniform(low - 2.0, high + 2.0)
        x0 = np.where(rng.random(n) < 0.5, np.where(rng.random(n) < 0.5, low, high), rng.uniform(low, high))

        def bowl(x, centre=centre.tolist()):
            return sum((a - c) ** 2 for a, c in zip(x, centre))

        _same_search(minimize, bowl, x0.tolist(), bounds)
    # bounds up to a quarter of the float limit, the largest that maximize_ic trusts the box rule with
    edge = sys.float_info.max / 4
    for n in (1, 2, 3, 4):
        low = rng.choice([-edge, -edge / 2, 0.0, edge / 2], n)
        high = np.minimum(low + rng.choice([edge / 4, edge, 2 * edge], n), edge)
        centre = rng.uniform(-2.0, 2.0, n) * edge

        def scaled_bowl(x, centre=centre.tolist()):
            return sum(((a - c) / edge) ** 2 for a, c in zip(x, centre))

        _same_search(minimize, scaled_bowl, np.where(rng.random(n) < 0.5, low, high).tolist(),
                     list(zip(low.tolist(), high.tolist())))
    # past it, inf - inf makes a NaN trial point, and the clip passes it
    points = []
    minimize(lambda x: points.append(x) or 0.0, [1.75e308], [(1.75e308, 1.79e308)])
    assert any(math.isnan(v) for x in points for v in x)


def test_simplex_stops_as_scipys_at_the_caps(monkeypatch):
    monkeypatch.setattr(sweep, "MAX_ITERATIONS", 3)
    request = (["theta", "chi"], {"theta": (0.0, TWO_PI), "chi": (0.0, math.pi / 2)}, {"asym": 0.4, "phi": 0.3})
    with pytest.raises(sweep.NoConvergence) as ours:
        maximize_ic(*request)
    monkeypatch.setattr(sweep, "minimize", _scipy_minimize)
    with pytest.raises(sweep.NoConvergence) as theirs:
        maximize_ic(*request)
    assert ours.value.best == theirs.value.best
    assert ours.value.best.iterations == 3
    # every step of a 4-D plateau shrinks, at 6 evaluations: the 12-evaluation cap
    # stops the second iteration in its middle
    x0 = [0.1, 0.2, 0.3, 0.4]
    plateau = (lambda x: 0.0 if list(x) == x0 else math.inf, x0, [(0.0, 1.0)] * 4)
    result = _same_search(minimize, *plateau)
    assert (result.nfev, result.nit, result.success) == (12, 2, False)
    # the 16-evaluation cap stops the second iteration in its shrink, after 3 of its 4 evaluations
    monkeypatch.setattr(sweep, "MAX_ITERATIONS", 4)
    result = _same_search(minimize, *plateau)
    assert (result.nfev, result.nit, result.success) == (16, 2, False)


# ------------------------------------------------------------------ presets


# each preset's axes as (name, start, stop, points) and its fixed values
PRESETS = {
    "fig1a": ([("theta", 0.0, TWO_PI, 41), ("chi", 0.0, math.pi / 2, 41)],
              {"gamma_t": math.inf, "asym": 1.0, "rho11": 0.25, "re_rho12": 0.0, "im_rho12": 0.0}),
    "fig1b": ([("theta", 0.0, TWO_PI, 41), ("gamma_t", 0.0, 8.0, 41)], {"asym": 1.0}),
    "fig2a": ([("theta", 0.0, TWO_PI, 41), ("rho11", 0.0, 1.0, 41)],
              {"gamma_t": math.inf, "asym": 1.0, "re_rho12": 0.0, "im_rho12": 0.0}),
    "fig2b": ([("asym", 0.0, 1.0, 41), ("chi", 0.0, math.pi / 2, 41)], {"theta": math.pi, "gamma_t": math.inf}),
}


def test_presets_have_documented_shapes():
    for figure, (axes, fixed) in PRESETS.items():
        preset = figure_preset(figure)
        assert [(a.name, a.start, a.stop, a.points) for a in preset.axes] == axes
        assert preset.fixed == fixed
        # a caller that changes its preset's fixed values leaves the next call's as they were
        preset.fixed.clear()
        preset.fixed["phi"] = 1.0
        assert figure_preset(figure).fixed == fixed


def test_presets_match_the_benchmark_copy(monkeypatch):
    """The benchmark checks each figure against its own copy of the presets: both copies name the same grids."""
    workloads = _benchmark_workloads(monkeypatch)
    assert sorted(copy.figure for copy in workloads.PRESETS) == sorted(FIGURES) == sorted(PRESETS)
    assert workloads.GRID == 41
    for copy in workloads.PRESETS:
        preset = figure_preset(copy.figure)
        assert [(a.name, a.start, a.stop) for a in preset.axes] == list(copy.axes)
        assert all(a.points == workloads.GRID for a in preset.axes)
        # the point each grid varies from, on the parameters that are not axes
        others = set(DEFAULTS) - {a.name for a in preset.axes}
        ours, theirs = DEFAULTS | preset.fixed, DEFAULTS | copy.fixed
        assert {k: ours[k] for k in others} == {k: theirs[k] for k in others}


def test_unknown_preset():
    with pytest.raises(UnknownFigure):
        figure_preset("fig9z")


def test_defaults_cover_every_parameter():
    assert set(DEFAULTS) == {
        "theta", "chi", "phi", "gamma_t", "rho11", "re_rho12", "im_rho12", "asym",
    }
    # PARAMETERS is the one list: the defaults, the flags and the config keys follow it, the state last
    assert list(DEFAULTS) == list(PARAMETERS) == list(sweep.PARAM_NAMES)
    assert tuple(PARAMETERS)[5:] == STATE_NAMES
    assert cli.CHANNEL_KEYS == cli.RATE_KEYS + tuple(PARAMETERS)[:5]
    parser = cli._make_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert list(commands) == list(cli.COMMANDS)
    want = [(["--" + name.replace("_", "-")], name, text) for name, (_, text) in PARAMETERS.items()]
    for command in commands.values():
        flags = [(a.option_strings, a.dest, a.help) for a in command._actions if a.dest in PARAMETERS]
        assert flags == want
    # the two other sources of a default agree with the table
    params = LambdaParams()
    assert (params.theta, params.chi, params.phi, params.gamma_t) == tuple(DEFAULTS[k] for k in PARAMETERS)[:4]
    assert params.gamma13 / params.gamma23 == DEFAULTS["asym"]
    rho = qubit_state(*(DEFAULTS[name] for name in STATE_NAMES))
    assert np.array_equal(rho.matrix, np.diag([0.5, 0.5]))
