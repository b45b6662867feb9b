"""Parameter grids and derivative-free maximization of coherent information.

A sweep point is a full assignment of the model parameters: pulse angles
(theta, chi, phi), elapsed decay gamma_t, the branching asymmetry ``asym``
(the ratio of the 3->1 and 3->2 decay rates), and the input-state
parameters (rho11, re_rho12, im_rho12).  Axes pick which of these vary;
everything else comes from ``fixed`` or from the defaults below.  If any
input-state parameter is swept or fixed explicitly, the input state is built
from those parameters; otherwise the ``input_state`` field is used directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np
from scipy.optimize import minimize

from .channel import DensityMatrix, NotDensityMatrix, maximally_mixed, qubit_state
from .lambda_system import InvalidAlphas, InvalidAngle, LambdaParams, coherent_information_at

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

InputState = Union[DensityMatrix, str]


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
        if math.isinf(self.stop):
            fractions = np.linspace(1.0 - math.exp(-self.start), 1.0, self.points)
            with np.errstate(divide="ignore"):
                return -np.log1p(-fractions)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """Grid request: 1 or 2 axes, fixed values for the rest, input state."""

    axes: tuple[Axis, ...]
    fixed: dict[str, float] = field(default_factory=dict)
    input_state: InputState = "maximally_mixed"

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
        if isinstance(self.input_state, str) and self.input_state != "maximally_mixed":
            raise InvalidSpec(f"unknown input_state {self.input_state!r}")

    def uses_state_params(self) -> bool:
        named = set(self.fixed) | {axis.name for axis in self.axes}
        return bool(named & set(STATE_NAMES))


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


def _params_at(point: Mapping[str, float]) -> LambdaParams:
    # asym r means decay rates in ratio r : 1 toward levels 1 and 2.
    return LambdaParams(
        gamma13=point["asym"],
        gamma23=1.0,
        theta=point["theta"],
        chi=point["chi"],
        phi=point["phi"],
        gamma_t=point["gamma_t"],
    )


def _state_at(point: Mapping[str, float], input_state: InputState, use_state_params: bool) -> DensityMatrix:
    if use_state_params:
        return qubit_state(point["rho11"], point["re_rho12"], point["im_rho12"])
    if isinstance(input_state, DensityMatrix):
        return input_state
    return maximally_mixed(2)


def _ic_at(point: Mapping[str, float], input_state: InputState, use_state_params: bool) -> float:
    params = _params_at(point)
    rho = _state_at(point, input_state, use_state_params)
    return coherent_information_at(params, rho)


def grid_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate I_c at every grid point, in row-major axis order."""
    here = dict(DEFAULTS)
    here.update(spec.fixed)
    use_state = spec.uses_state_params()
    axis_values = [axis.values() for axis in spec.axes]
    shape = tuple(len(vals) for vals in axis_values)
    points = list(itertools.product(*axis_values))

    flat = np.empty(len(points), dtype=float)
    for i, grid_point in enumerate(points):
        for axis, value in zip(spec.axes, grid_point):
            here[axis.name] = float(value)
        try:
            flat[i] = _ic_at(here, spec.input_state, use_state)
        except NotDensityMatrix as err:
            at = ", ".join(f"{axis.name}={v:g}" for axis, v in zip(spec.axes, grid_point))
            raise InvalidStateAtPoint(f"invalid input state at {at}: {err}") from err

    values = flat.reshape(shape) if len(shape) > 1 else flat
    best = int(np.argmax(flat))
    argmax = {
        axis.name: float(points[best][j]) for j, axis in enumerate(spec.axes)
    }
    return SweepResult(spec=spec, values=values, argmax=argmax, max_value=float(flat[best]))


def maximize_ic(
    free: Sequence[str],
    bounds: Mapping[str, tuple[float, float]],
    fixed: Mapping[str, float] | None = None,
    input_state: InputState = "maximally_mixed",
) -> Optimum:
    """Maximize I_c over 1-4 parameters with a simplex search.

    A coarse grid (9 points per free parameter) seeds a bounded Nelder-Mead
    refinement.  Parameter combinations that imply an unphysical input state
    score -inf and are thereby rejected.  Degenerate bounds (lo == hi) pin
    a parameter without consuming a search dimension.

    Raises
    ------
    InvalidSpec
        Malformed request (unknown names, missing or infinite bounds).
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
    for name in fixed:
        if name not in PARAM_NAMES:
            raise InvalidSpec(f"unknown fixed parameter {name!r}")

    base = dict(DEFAULTS)
    base.update(fixed)
    use_state = bool((set(free) | set(fixed)) & set(STATE_NAMES))

    pinned = {name: bounds[name][0] for name in free if bounds[name][0] == bounds[name][1]}
    active = [name for name in free if name not in pinned]

    def score(assignment: Mapping[str, float]) -> float:
        here = dict(base)
        here.update(pinned)
        here.update(assignment)
        try:
            return _ic_at(here, input_state, use_state)
        except (NotDensityMatrix, InvalidAngle, InvalidAlphas):
            return -math.inf

    if not active:
        value = score({})
        return Optimum(point=dict(pinned), value=value, iterations=0)

    coarse_axes = [np.linspace(*bounds[name], COARSE_POINTS) for name in active]
    seed = None
    seed_score = -math.inf
    for combo in itertools.product(*coarse_axes):
        trial = dict(zip(active, combo))
        value = score(trial)
        if value > seed_score:
            seed, seed_score = combo, value

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
