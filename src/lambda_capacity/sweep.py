"""Parameter grids and derivative-free maximization of coherent information.

A sweep point is a full assignment of the model parameters: pulse angles
(theta, chi, phi), elapsed decay gamma_t, the branching asymmetry ``asym``
(the ratio of the 3->1 and 3->2 decay rates), and the input-state
parameters (rho11, re_rho12, im_rho12).  Axes pick which of these vary;
everything else comes from ``fixed`` or from the defaults below.  The input
state is ``qubit_state(rho11, re_rho12, im_rho12)``; the defaults give the
maximally mixed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from .channel import (
    DensityMatrix,
    NotDensityMatrix,
    density_mask,
    qubit_matrices,
    qubit_state,
)
from .lambda_system import (
    InvalidAlphas,
    InvalidAngle,
    LambdaParams,
    coherent_information_at,
    coherent_information_batch,
    params_mask,
)

PARAM_NAMES = ("theta", "chi", "phi", "gamma_t", "rho11", "re_rho12", "im_rho12", "asym")
STATE_NAMES = ("rho11", "re_rho12", "im_rho12")

DEFAULTS: dict[str, float] = {
    "theta": math.pi,
    "chi": math.pi / 2,
    "phi": 0.0,
    "gamma_t": math.inf,
    "asym": 1.0,
    "rho11": 0.5,
    "re_rho12": 0.0,
    "im_rho12": 0.0,
}

MAX_FREE = 4
COARSE_POINTS = 9
SIMPLEX_TOL = 1e-8
MAX_ITERATIONS = 2000
# points per evaluation block: bounds the batched temporaries whatever the grid
# size, holds a 41x41 grid whole, and is far above lambda_system.CLOSED_FORM_MIN,
# so full blocks take closed-form spectra (LAPACK only at unresolved points)
BLOCK = 2048


class InvalidSpec(ValueError):
    """Sweep or optimization request is malformed."""


class InvalidStateAtPoint(ValueError):
    """A grid point implies an unphysical input state."""


class UnknownFigure(ValueError):
    """No preset with that identifier."""


class NoConvergence(RuntimeError):
    """Optimizer hit its iteration cap; best point found so far is attached."""

    def __init__(self, message: str, point: dict[str, float], value: float, iterations: int):
        super().__init__(message)
        self.point = point
        self.value = value
        self.iterations = iterations


@dataclass(frozen=True)
class Axis:
    """One swept parameter: name plus an inclusive sampling interval."""

    name: str
    start: float
    stop: float
    points: int

    def values(self) -> np.ndarray:
        """Grid values, start to stop inclusive.

        A gamma_t axis may end at infinity; such an axis is sampled
        uniformly in the decayed fraction 1 - e^(-gamma_t) (the only form
        in which gamma_t enters the model), ending exactly at inf.
        """
        if not math.isinf(self.stop):
            return np.linspace(self.start, self.stop, self.points)
        with np.errstate(divide="ignore"):
            try:
                fractions = np.linspace(1.0 - math.exp(-self.start), 1.0, self.points)
            except OverflowError:
                # a start below about -709, unphysical and rejected at this first
                # point: the same samples, written without e^(-start)
                return self.start - np.log1p(-np.linspace(0.0, 1.0, self.points))
            return -np.log1p(-fractions)


@dataclass(frozen=True)
class SweepSpec:
    """Grid request: 1 or 2 axes, fixed values for the rest."""

    axes: tuple[Axis, ...]
    fixed: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= 2:
            raise InvalidSpec(f"need 1 or 2 axes, got {len(self.axes)}")
        seen: set[str] = set()
        for axis in self.axes:
            if axis.name not in PARAM_NAMES:
                raise InvalidSpec(f"unknown axis parameter {axis.name!r}")
            if axis.name in seen:
                raise InvalidSpec(f"duplicate axis {axis.name!r}")
            seen.add(axis.name)
            if axis.points < 2:
                raise InvalidSpec(f"axis {axis.name!r} needs at least 2 points")
            stop_ok = math.isfinite(axis.stop) or (axis.name == "gamma_t" and axis.stop == math.inf)
            if not (math.isfinite(axis.start) and stop_ok):
                raise InvalidSpec(f"axis {axis.name!r} bounds must be finite")
        for name in self.fixed:
            if name not in PARAM_NAMES:
                raise InvalidSpec(f"unknown fixed parameter {name!r}")
            if name in seen:
                raise InvalidSpec(f"parameter {name!r} is both an axis and fixed")


@dataclass(frozen=True)
class SweepResult:
    """Evaluated grid: I_c values in row-major axis order plus the maximum."""

    spec: SweepSpec
    values: np.ndarray
    argmax: dict[str, float]
    max_value: float


@dataclass(frozen=True)
class Optimum:
    """Result of maximize_ic: best point, its I_c, iterations used."""

    point: dict[str, float]
    value: float
    iterations: int


def _point_objects(point: Mapping[str, float]) -> tuple[LambdaParams, DensityMatrix]:
    """The parameters and input state of one point; the constructors raise on bad values."""
    return _point_params(point), _point_state(point)


def _point_params(point: Mapping[str, float]) -> LambdaParams:
    # asym r means decay rates in ratio r : 1 toward levels 1 and 2; a point
    # may instead carry the rates gamma13, gamma23 themselves
    return LambdaParams(
        gamma13=point.get("gamma13", point["asym"]),
        gamma23=point.get("gamma23", 1.0),
        theta=point["theta"],
        chi=point["chi"],
        phi=point["phi"],
        gamma_t=point["gamma_t"],
    )


def _point_state(point: Mapping[str, float]) -> DensityMatrix:
    return qubit_state(point["rho11"], point["re_rho12"], point["im_rho12"])


def _states(columns: Mapping[str, np.ndarray | float]) -> tuple[np.ndarray, np.ndarray]:
    """Input states (..., 2, 2) of state columns of one common shape, and the mask of the physical ones.

    The mask holds the conditions of ``qubit_state`` / ``DensityMatrix``
    with their tolerances, state by state.
    """
    rho = qubit_matrices(columns["rho11"], columns["re_rho12"], columns["im_rho12"])
    return rho, density_mask(rho)


def _params_valid(columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """The conditions of ``LambdaParams``, point by point."""
    return params_mask(
        columns["asym"], 1.0, columns["theta"], columns["chi"], columns["phi"], columns["gamma_t"]
    )


def _grid_blocks(base: Mapping[str, float], names: Sequence[str], axis_values: Sequence[np.ndarray]):
    """Yield (slice, columns, rho, valid) over the row-major grid of ``axis_values``, BLOCK points at a time.

    ``columns`` maps every parameter name to an array over the block's points:
    the axis values at those points, ``base`` for the rest.  ``rho`` (n, 2, 2)
    holds their input states and ``valid`` marks the physical points.  A
    state depends on the state axes only, so each distinct state is built and
    checked once, on the sub-grid of those axes (one matrix when none of them
    varies), before the first block.
    """
    shape = tuple(len(values) for values in axis_values)
    # each axis as an array of length 1 along every other axis
    along = {
        name: values.reshape([-1 if j == k else 1 for j in range(len(shape))])
        for k, (name, values) in enumerate(zip(names, axis_values))
    }
    rho, state_valid = _states({name: along.get(name, base[name]) for name in STATE_NAMES})
    rho = np.broadcast_to(rho, shape + (2, 2))
    state_valid = np.broadcast_to(state_valid, shape)
    size = math.prod(shape)
    for start in range(0, size, BLOCK):
        where = slice(start, min(start + BLOCK, size))
        index = np.unravel_index(np.arange(where.start, where.stop), shape)
        columns = {name: np.full(len(index[0]), float(value)) for name, value in base.items()}
        columns.update({name: values[i] for name, values, i in zip(names, axis_values, index)})
        yield where, columns, rho[index], _params_valid(columns) & state_valid[index]


def _block_ic(columns: Mapping[str, np.ndarray], rho: np.ndarray) -> np.ndarray:
    asym = columns["asym"]
    return coherent_information_batch(
        columns["theta"], columns["chi"], columns["phi"], columns["gamma_t"], asym / (asym + 1.0), rho
    )


def grid_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate I_c at every grid point, in row-major axis order.

    Points are evaluated BLOCK at a time.  The first unphysical point in grid
    order raises: ``InvalidAngle``/``InvalidAlphas`` for its parameters, else
    ``InvalidStateAtPoint`` naming the point.
    """
    base = dict(DEFAULTS)
    base.update(spec.fixed)
    names = [axis.name for axis in spec.axes]
    axis_values = [axis.values() for axis in spec.axes]
    shape = tuple(len(values) for values in axis_values)

    flat = np.empty(math.prod(shape), dtype=float)
    for where, columns, rho, valid in _grid_blocks(base, names, axis_values):
        if not valid.all():
            bad = int(np.argmin(valid))
            point = {name: float(column[bad]) for name, column in columns.items()}
            try:
                _point_objects(point)
            except NotDensityMatrix as err:
                at = ", ".join(f"{name}={point[name]:g}" for name in names)
                raise InvalidStateAtPoint(f"invalid input state at {at}: {err}") from err
            raise RuntimeError(f"validity mask rejects {point}, which the constructors accept")
        flat[where] = _block_ic(columns, rho)

    best = int(np.argmax(flat))
    at = np.unravel_index(best, shape)
    argmax = {name: float(values[i]) for name, values, i in zip(names, axis_values, at)}
    return SweepResult(spec=spec, values=flat.reshape(shape), argmax=argmax, max_value=float(flat[best]))


def maximize_ic(
    free: Sequence[str],
    bounds: Mapping[str, tuple[float, float]],
    fixed: Mapping[str, float] | None = None,
) -> Optimum:
    """Maximize I_c over 1-4 parameters with a simplex search.

    A coarse grid (9 points per free parameter, evaluated BLOCK points at a
    time) seeds a bounded Nelder-Mead refinement.  Parameter combinations
    that imply an unphysical input state score -inf and are thereby
    rejected.  Degenerate bounds (lo == hi) pin a parameter without
    consuming a search dimension.

    Raises
    ------
    InvalidSpec
        Malformed request (unknown names, missing or infinite bounds, bounds
        for a parameter that is not free), no physical point on the coarse
        grid, or every free parameter pinned at an unphysical point.
    NoConvergence
        Iteration cap hit; the best point so far rides on the exception.
    """
    fixed = dict(fixed or {})
    if not 1 <= len(free) <= MAX_FREE:
        raise InvalidSpec(f"need 1 to {MAX_FREE} free parameters, got {len(free)}")
    if len(set(free)) != len(free):
        raise InvalidSpec("duplicate free parameter")
    for name in free:
        if name not in PARAM_NAMES:
            raise InvalidSpec(f"unknown free parameter {name!r}")
        if name in fixed:
            raise InvalidSpec(f"parameter {name!r} is both free and fixed")
        if name not in bounds:
            raise InvalidSpec(f"missing bounds for {name!r}")
        lo, hi = bounds[name]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise InvalidSpec(f"bounds for {name!r} must be finite with lo <= hi")
    for name in bounds:
        if name not in free:
            raise InvalidSpec(f"bounds given for {name!r}, which is not a free parameter")
    for name in fixed:
        if name not in PARAM_NAMES:
            raise InvalidSpec(f"unknown fixed parameter {name!r}")

    base = dict(DEFAULTS)
    base.update(fixed)

    pinned = {name: bounds[name][0] for name in free if bounds[name][0] == bounds[name][1]}
    active = [name for name in free if name not in pinned]
    base.update(pinned)

    # with no active state parameter every point shares one input state: build it once
    shared = None
    if not set(active) & set(STATE_NAMES):
        try:
            shared = _point_state(base)
        except NotDensityMatrix:
            pass  # every point is unphysical; score() raises and scores it -inf

    def score(assignment: Mapping[str, float]) -> float:
        here = dict(base)
        here.update(assignment)
        try:
            params = _point_params(here)
            rho = shared if shared is not None else _point_state(here)
        except (NotDensityMatrix, InvalidAngle, InvalidAlphas):
            return -math.inf
        return coherent_information_at(params, rho)

    if not active:
        value = score({})
        if value == -math.inf:
            at = ", ".join(f"{name}={pinned[name]:g}" for name in free)
            raise InvalidSpec(f"every free parameter is pinned, at the unphysical point {at}")
        return Optimum(point=dict(pinned), value=value, iterations=0)

    coarse_axes = [np.linspace(*bounds[name], COARSE_POINTS) for name in active]
    coarse = np.full(COARSE_POINTS ** len(active), -np.inf)
    for where, columns, rho, valid in _grid_blocks(base, active, coarse_axes):
        if valid.any():
            block = coarse[where]  # a view: writes land in coarse
            kept = {name: column[valid] for name, column in columns.items()}
            block[valid] = _block_ic(kept, rho[valid])
    best = int(np.argmax(coarse))
    if coarse[best] == -np.inf:
        raise InvalidSpec(f"every coarse-grid point over {', '.join(active)} is unphysical")
    at = np.unravel_index(best, (COARSE_POINTS,) * len(active))
    seed = [axis[i] for axis, i in zip(coarse_axes, at)]

    def objective(x: np.ndarray) -> float:
        return -score(dict(zip(active, x)))

    result = minimize(
        objective,
        x0=np.asarray(seed, dtype=float),
        method="Nelder-Mead",
        bounds=[bounds[name] for name in active],
        options={
            "xatol": SIMPLEX_TOL,
            "fatol": SIMPLEX_TOL,
            "maxiter": MAX_ITERATIONS,
            "maxfev": 4 * MAX_ITERATIONS,
        },
    )
    point = dict(pinned)
    point.update({name: float(v) for name, v in zip(active, result.x)})
    value = -float(result.fun)
    if not result.success:
        raise NoConvergence(
            f"simplex search stopped after {result.nit} iterations without converging",
            point=point,
            value=value,
            iterations=int(result.nit),
        )
    return Optimum(point=point, value=value, iterations=int(result.nit))


def figure_preset(figure_id: str) -> SweepSpec:
    """Canned sweep grids for the four standard surfaces.

    fig1a: (theta, chi) for the diagonal input diag(1/4, 3/4), full decay.
    fig1b: (theta, gamma_t) for the maximally mixed input.
    fig2a: (theta, rho11) over diagonal inputs, full decay.
    fig2b: (asym, chi) at theta = pi, full decay, maximally mixed input.
    All grids are 41x41.
    """
    n = 41
    two_pi = 2.0 * math.pi
    half_pi = math.pi / 2
    if figure_id == "fig1a":
        return SweepSpec(
            axes=(Axis("theta", 0.0, two_pi, n), Axis("chi", 0.0, half_pi, n)),
            fixed={"gamma_t": math.inf, "asym": 1.0, "rho11": 0.25, "re_rho12": 0.0, "im_rho12": 0.0},
        )
    if figure_id == "fig1b":
        return SweepSpec(
            axes=(Axis("theta", 0.0, two_pi, n), Axis("gamma_t", 0.0, 8.0, n)),
            fixed={"asym": 1.0},
        )
    if figure_id == "fig2a":
        return SweepSpec(
            axes=(Axis("theta", 0.0, two_pi, n), Axis("rho11", 0.0, 1.0, n)),
            fixed={"gamma_t": math.inf, "asym": 1.0, "re_rho12": 0.0, "im_rho12": 0.0},
        )
    if figure_id == "fig2b":
        return SweepSpec(
            axes=(Axis("asym", 0.0, 1.0, n), Axis("chi", 0.0, half_pi, n)),
            fixed={"theta": math.pi, "gamma_t": math.inf},
        )
    raise UnknownFigure(f"unknown figure id {figure_id!r}")
