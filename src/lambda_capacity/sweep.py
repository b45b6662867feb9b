"""Parameter grids and derivative-free maximization of coherent information.

A sweep point is a full assignment of the model parameters: pulse angles
(theta, chi, phi), elapsed decay gamma_t, the branching asymmetry ``asym``
(the ratio of the 3->1 and 3->2 decay rates), and the input-state
parameters (rho11, re_rho12, im_rho12).  ``PARAMETERS`` below is the one
list of them, with each default and its command-line help.  Axes pick which
of these vary; everything else comes from ``fixed`` or from the defaults.
The input state is ``qubit_state(rho11, re_rho12, im_rho12)``; the defaults
give the maximally mixed state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import OptimizeResult

from .channel import DensityMatrix, NotDensityMatrix, _coherence, density_mask, qubit_state
from .lambda_system import LambdaParams, coherent_information_batch, params_mask

# each parameter's default and --help text, in flag order, the input state last
PARAMETERS: dict[str, tuple[float, str]] = {
    "theta": (math.pi, "total pulse action angle (radians)"),
    "chi": (math.pi / 2, "intensity-distribution angle in [0, pi/2]"),
    "phi": (0.0, "relative phase of the two pulse tones"),
    "gamma_t": (math.inf, "elapsed decay gamma*t (number or \"inf\")"),
    "asym": (1.0, "decay-rate ratio gamma13/gamma23"),
    "rho11": (0.5, "input-state population of level 1"),
    "re_rho12": (0.0, "Re of the input coherence"),
    "im_rho12": (0.0, "Im of the input coherence"),
}
DEFAULTS: dict[str, float] = {name: default for name, (default, _) in PARAMETERS.items()}
PARAM_NAMES = tuple(PARAMETERS)
STATE_NAMES = ("rho11", "re_rho12", "im_rho12")

MAX_FREE = 4
COARSE_POINTS = 9
SIMPLEX_TOL = 1e-8
MAX_ITERATIONS = 2000
# scipy's Nelder-Mead steps (adaptive=False): reflection, expansion, contraction
# and shrink coefficients, and the initial step of a nonzero / zero coordinate
REFLECT, EXPAND, CONTRACT, SHRINK = 1.0, 2.0, 0.5, 0.5
NONZERO_STEP, ZERO_STEP = 0.05, 0.00025
# points per evaluation block: bounds the batched temporaries whatever the grid
# size, and holds a 41x41 grid whole
BLOCK = 2048


class InvalidSpec(ValueError):
    """Sweep or optimization request is malformed."""


class InvalidStateAtPoint(ValueError):
    """A grid point implies an unphysical input state."""


class UnknownFigure(ValueError):
    """No preset with that identifier."""


class NoConvergence(RuntimeError):
    """Optimizer hit its iteration cap; the best point found so far rides on it as ``best``."""

    def __init__(self, message: str, best: Optimum):
        super().__init__(message)
        self.best = best


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
        in which gamma_t enters the model), starting exactly at start and
        ending exactly at inf.
        """
        if not math.isinf(self.stop):
            return np.linspace(self.start, self.stop, self.points)
        with np.errstate(divide="ignore"):
            return self.start - np.log1p(-np.linspace(0.0, 1.0, self.points))


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
            if math.isfinite(axis.stop) and not math.isfinite(axis.stop - axis.start):
                raise InvalidSpec(f"axis {axis.name!r} needs a finite width stop - start")
        size = math.prod(axis.points for axis in self.axes)
        if size * 8 > sys.maxsize:  # numpy's limit on the bytes of one array
            raise InvalidSpec(f"a grid of {size} points is too large to allocate")
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
    """The parameters and input state of one point; the constructors raise on bad values, parameters first."""
    # asym r means decay rates in ratio r : 1 toward levels 1 and 2; a point
    # may instead carry the rates gamma13, gamma23 themselves
    params = LambdaParams(
        gamma13=point.get("gamma13", point["asym"]),
        gamma23=point.get("gamma23", 1.0),
        theta=point["theta"],
        chi=point["chi"],
        phi=point["phi"],
        gamma_t=point["gamma_t"],
    )
    return params, qubit_state(point["rho11"], point["re_rho12"], point["im_rho12"])


def _params_valid(columns: Mapping[str, np.ndarray | float]) -> np.ndarray | bool:
    """True where ``LambdaParams`` accepts the point: elementwise over columns of arrays."""
    return params_mask(columns["asym"], 1.0, columns["theta"], columns["chi"], columns["phi"], columns["gamma_t"])


def _state_valid(columns: Mapping[str, np.ndarray | float]) -> np.ndarray | bool:
    """True where ``qubit_state`` accepts the point: elementwise over columns of arrays."""
    return density_mask(columns["rho11"], columns["re_rho12"], columns["im_rho12"])


def _valid(columns: Mapping[str, np.ndarray | float]) -> np.ndarray | bool:
    """True where ``LambdaParams`` and ``qubit_state`` accept the point: elementwise over columns of arrays.

    The validity rule of grid blocks; a simplex step applies its two parts
    itself (see :func:`maximize_ic`).
    """
    return _params_valid(columns) & _state_valid(columns)


def _grid_blocks(base: Mapping[str, float], names: Sequence[str], axis_values: Sequence[np.ndarray]):
    """Yield (start, ic) over the row-major grid of ``axis_values``, BLOCK points at a time.

    ``ic`` holds I_c at the block's points, from flat index ``start`` on; a
    point takes its axis values and ``base`` for the other parameters.
    Unphysical points are not evaluated and read -inf.
    """
    shape = tuple(len(values) for values in axis_values)
    size = math.prod(shape)
    for start in range(0, size, BLOCK):
        index = np.unravel_index(np.arange(start, min(start + BLOCK, size)), shape)
        columns = {name: np.full(len(index[0]), float(value)) for name, value in base.items()}
        columns.update({name: values[i] for name, values, i in zip(names, axis_values, index)})
        valid = _valid(columns)
        ic = np.full(len(valid), -np.inf)
        ic[valid] = _block_ic({name: column[valid] for name, column in columns.items()})
        yield start, ic


def _block_ic(columns: Mapping[str, np.ndarray | float]) -> np.ndarray:
    """I_c at the points of ``columns``, unvalidated: arrays of one shape, or numbers for one point."""
    asym, rho11 = columns["asym"], columns["rho11"]
    return coherent_information_batch(
        columns["theta"], columns["chi"], columns["phi"], columns["gamma_t"], asym / (asym + 1.0),
        rho11, 1.0 - rho11, _coherence(columns["re_rho12"], columns["im_rho12"]),
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

    def axes_at(flat_index: int) -> dict[str, float]:
        index = np.unravel_index(flat_index, shape)
        return {name: float(values[i]) for name, values, i in zip(names, axis_values, index)}

    flat = np.empty(math.prod(shape), dtype=float)
    for start, block in _grid_blocks(base, names, axis_values):
        unphysical = block == -np.inf
        if unphysical.any():
            point = {name: float(value) for name, value in base.items()}
            point.update(axes_at(start + int(np.argmax(unphysical))))
            # the constructors check the mask's own rules, in order: the first failure raises
            try:
                _point_objects(point)
            except NotDensityMatrix as err:
                where = ", ".join(f"{name}={point[name]:g}" for name in names)
                raise InvalidStateAtPoint(f"invalid input state at {where}: {err}") from err
        flat[start : start + len(block)] = block

    best = int(np.argmax(flat))
    return SweepResult(spec=spec, values=flat.reshape(shape), argmax=axes_at(best), max_value=float(flat[best]))


def maximize_ic(
    free: Sequence[str],
    bounds: Mapping[str, tuple[float, float]],
    fixed: Mapping[str, float] | None = None,
) -> Optimum:
    """Maximize I_c over 1-4 parameters with a simplex search.

    A coarse grid (9 points per free parameter, evaluated BLOCK points at a
    time) seeds a bounded Nelder-Mead refinement, :func:`minimize`.
    Parameter combinations that imply an unphysical input state score -inf
    and are thereby rejected.  Degenerate bounds (lo == hi) pin a parameter
    without consuming a search dimension.

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
        if not math.isfinite(hi - lo):
            raise InvalidSpec(f"bounds for {name!r} need a finite width hi - lo")
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

    # a search that moves no input-state parameter checks the state once
    state_free = any(name in STATE_NAMES for name in active)
    state_valid = state_free or _state_valid(base)

    def score(x: Sequence[float]) -> float:
        # I_c with the active parameters at x; on Python floats the rule checks are plain float comparisons
        here = {**base, **dict(zip(active, x))}
        if state_valid and _params_valid(here) and (not state_free or _state_valid(here)):
            return float(_block_ic(here))
        return -math.inf

    if not active:
        value = score([])
        if value == -math.inf:
            at = ", ".join(f"{name}={pinned[name]:g}" for name in free)
            raise InvalidSpec(f"every free parameter is pinned, at the unphysical point {at}")
        return Optimum(point=dict(pinned), value=value, iterations=0)

    coarse_axes = [np.linspace(*bounds[name], COARSE_POINTS) for name in active]
    coarse = np.concatenate([block for _, block in _grid_blocks(base, active, coarse_axes)])
    best = int(np.argmax(coarse))
    if coarse[best] == -np.inf:
        raise InvalidSpec(f"every coarse-grid point over {', '.join(active)} is unphysical")
    at = np.unravel_index(best, (COARSE_POINTS,) * len(active))
    seed = [float(axis[i]) for axis, i in zip(coarse_axes, at)]

    result = minimize(lambda x: -score(x), seed, [bounds[name] for name in active])
    point = dict(pinned)
    point.update({name: float(v) for name, v in zip(active, result.x)})
    best = Optimum(point=point, value=-float(result.fun), iterations=int(result.nit))
    if not result.success:
        raise NoConvergence(f"simplex search stopped after {result.nit} iterations without converging", best)
    return best


class _OutOfEvaluations(Exception):
    """The evaluation cap of :func:`minimize` is reached."""


def minimize(f, x0: Sequence[float], bounds: Sequence[tuple[float, float]]) -> OptimizeResult:
    """Minimize ``f`` over the box ``bounds`` from ``x0`` with scipy's bounded Nelder-Mead, on Python floats.

    The same search as ``scipy.optimize.minimize(f, x0, method="Nelder-Mead",
    bounds=bounds)`` with xatol = fatol = SIMPLEX_TOL, maxiter = MAX_ITERATIONS
    and maxfev = 4 MAX_ITERATIONS, step for step: scipy's coefficients and
    initial simplex, reflected into the box at the upper bound and clipped;
    every trial point clipped as ``np.clip`` clips; the same stops, an
    exhausted evaluation budget also in the middle of an iteration.  The
    simplex is one list of (value, vertex) pairs, each vertex a list of
    floats, and ``f`` takes one such list.  The list is sorted on the value
    alone, and the sort is stable: tied vertices keep their order, as under a
    stable ``np.argsort``.  Returns scipy's ``OptimizeResult`` with ``x``,
    ``fun``, ``nit``, ``nfev`` and ``success``.
    """
    maxiter, maxfev = MAX_ITERATIONS, 4 * MAX_ITERATIONS
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    n = len(bounds)
    nfev = 0
    by_value = itemgetter(0)

    def clip(x: list[float]) -> list[float]:
        # np.clip's rule: max(x, lo) then min(., hi), each keeping the bound at a tie
        out = []
        for v, (lo, hi) in zip(x, bounds):
            v = lo if v <= lo else v
            out.append(hi if v >= hi else v)
        return out

    def evaluated(x: list[float]) -> tuple[float, list[float]]:
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfEvaluations
        nfev += 1
        return float(f(x)), x

    # maximize_ic passes at most MAX_FREE coordinates, so the first n + 1 evaluations fit in the cap
    start = clip([float(v) for v in x0])
    simplex = [evaluated(start)]
    for k in range(n):
        vertex = list(start)
        vertex[k] = (1 + NONZERO_STEP) * vertex[k] if vertex[k] != 0 else ZERO_STEP
        # a step past the upper bound is reflected back into the box
        simplex.append(evaluated(clip([2 * hi - v if v > hi else v for v, (_, hi) in zip(vertex, bounds)])))
    simplex.sort(key=by_value)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            (f_best, best), (f_worst, worst) = simplex[0], simplex[-1]
            if all(abs(v - b) <= SIMPLEX_TOL for _, vertex in simplex[1:] for v, b in zip(vertex, best)) and all(
                abs(f_best - f_vertex) <= SIMPLEX_TOL for f_vertex, _ in simplex[1:]
            ):
                break
            total = best
            for _, vertex in simplex[1:-1]:
                total = [t + v for t, v in zip(total, vertex)]
            centroid = [t / n for t in total]

            def toward(t: float) -> tuple[float, list[float]]:
                # the point (1 + t) centroid - t worst, in scipy's arithmetic, evaluated
                return evaluated(clip([(1 + t) * c - t * w for c, w in zip(centroid, worst)]))

            reflected = toward(REFLECT)
            shrink = False
            if reflected[0] < f_best:
                expanded = toward(REFLECT * EXPAND)
                simplex[-1] = expanded if expanded[0] < reflected[0] else reflected
            elif reflected[0] < simplex[-2][0]:
                simplex[-1] = reflected
            elif reflected[0] < f_worst:
                contracted = toward(CONTRACT * REFLECT)
                if contracted[0] <= reflected[0]:
                    simplex[-1] = contracted
                else:
                    shrink = True
            else:
                contracted = toward(-CONTRACT)
                if contracted[0] < f_worst:
                    simplex[-1] = contracted
                else:
                    shrink = True
            if shrink:
                # vertex 0 stays.  A cap met here leaves the vertices not yet shrunk as they were, where scipy
                # pairs one new vertex with its old value, no lower than vertex 0's: the results agree
                for j in range(1, n + 1):
                    simplex[j] = evaluated(clip([b + SHRINK * (v - b) for b, v in zip(best, simplex[j][1])]))
            iterations += 1
        except _OutOfEvaluations:
            pass
        simplex.sort(key=by_value)

    success = nfev < maxfev and iterations < maxiter
    f_best, best = simplex[0]
    return OptimizeResult(x=np.array(best), fun=f_best, nit=iterations, nfev=nfev, success=success)


# the figure presets, id -> (axes, fixed); every grid is 41x41
FIGURES = {
    # (theta, chi) for the diagonal input diag(1/4, 3/4), full decay
    "fig1a": ((Axis("theta", 0.0, 2.0 * math.pi, 41), Axis("chi", 0.0, math.pi / 2, 41)),
              {"gamma_t": math.inf, "asym": 1.0, "rho11": 0.25, "re_rho12": 0.0, "im_rho12": 0.0}),
    # (theta, gamma_t) for the maximally mixed input
    "fig1b": ((Axis("theta", 0.0, 2.0 * math.pi, 41), Axis("gamma_t", 0.0, 8.0, 41)),
              {"asym": 1.0}),
    # (theta, rho11) over diagonal inputs, full decay
    "fig2a": ((Axis("theta", 0.0, 2.0 * math.pi, 41), Axis("rho11", 0.0, 1.0, 41)),
              {"gamma_t": math.inf, "asym": 1.0, "re_rho12": 0.0, "im_rho12": 0.0}),
    # (asym, chi) at theta = pi, full decay, maximally mixed input
    "fig2b": ((Axis("asym", 0.0, 1.0, 41), Axis("chi", 0.0, math.pi / 2, 41)),
              {"theta": math.pi, "gamma_t": math.inf}),
}


def figure_preset(figure_id: str) -> SweepSpec:
    """The grid of the preset ``figure_id`` in FIGURES; its ``fixed`` is a copy, so callers cannot change the table."""
    if figure_id not in FIGURES:
        raise UnknownFigure(f"unknown figure id {figure_id!r}")
    axes, fixed = FIGURES[figure_id]
    return SweepSpec(axes=axes, fixed=dict(fixed))
