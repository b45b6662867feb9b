"""Independent oracles that the tests compare the package against.

The package evaluates a point from two 3x3 spectra: the field state and the
atom state (see ``lambda_capacity.lambda_system``).  This module holds the
other routes, which no package code calls:

* a generic channel engine in transfer-operator form: purification, the
  output state, the (dim_out*dim_in)-dimensional output-mirror state, the
  entropy exchange and the coherent information, on a validated
  eigensystem with descending eigenvalues.  Its states of any dimension
  are :class:`State`, checked by that eigensystem; the package's
  ``DensityMatrix`` is a qubit state, and serves as an input;
* ``closed_form_channel``, the Lambda channel's transfer operators written
  out by hand for the chi = pi/2 drive;
* ``load_benchmark_reference``, the benchmark's numpy-only evaluator for
  general pulses, run from its source file.

``oracle_points`` gives the seeded points, edge values included, at which
the tests compare the package with these routes.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lambda_capacity.channel import ChannelMap, DimensionMismatch, NotDensityMatrix
from lambda_capacity.linalg import entropy_bits

HERMITICITY_TOL = 1e-10
# the package's tolerance on the trace and the lowest eigenvalue of a state
DENSITY_TOL = 1e-10


class NotSquare(ValueError):
    """Matrix is not square."""


class NotHermitian(ValueError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class ConvergenceFailure(RuntimeError):
    """Eigensolver did not converge."""


class OutputNotDensity(NotDensityMatrix):
    """A channel produced an invalid output state (malformed map)."""


# ------------------------------------------------------------- eigensystems


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` is real and sorted descending; column k of
    ``eigenvectors`` is the orthonormal eigenvector for ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigensystem(matrix: np.ndarray) -> Spectrum:
    """Diagonalize a Hermitian matrix with eigenvalues in descending order.

    Ties keep the solver's output order, so results are deterministic.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotHermitian("matrix contains NaN or Inf entries")
    asym = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if asym > HERMITICITY_TOL:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds {HERMITICITY_TOL:.0e}")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as err:
        raise ConvergenceFailure(str(err)) from err
    # eigh returns ascending order; flip to descending.
    return Spectrum(values[::-1].copy(), vectors[:, ::-1].copy())


@dataclass(frozen=True)
class State:
    """A density matrix of any dimension, checked with :func:`hermitian_eigensystem`.

    Construction raises ``NotDensityMatrix`` unless the matrix is square,
    finite and Hermitian, of unit trace and with no eigenvalue below
    -DENSITY_TOL.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        try:
            lowest = hermitian_eigensystem(m).eigenvalues[-1]
        except (NotSquare, NotHermitian) as err:
            raise NotDensityMatrix(str(err)) from err
        trace = np.trace(m)
        if abs(trace - 1.0) > DENSITY_TOL:
            raise NotDensityMatrix(f"trace {complex(trace)} is not 1")
        if lowest < -DENSITY_TOL:
            raise NotDensityMatrix(f"negative eigenvalue {lowest:.3e}")
        object.__setattr__(self, "matrix", m)


def dim(rho: State) -> int:
    """Dimension of the state's space."""
    return rho.matrix.shape[0]


def spectrum(rho: State) -> np.ndarray:
    """Eigenvalues of a state, descending."""
    return hermitian_eigensystem(rho.matrix).eigenvalues


def entropy(rho: State) -> float:
    """Von Neumann entropy of a state in bits."""
    return entropy_bits(spectrum(rho))


# ----------------------------------------------------------- channel engine


def identity_channel(d: int) -> ChannelMap:
    """The noiseless channel: s[m, n] = |m><n|."""
    s = np.zeros((d, d, d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            s[m, n, m, n] = 1.0
    return ChannelMap(s)


def purify(rho: State) -> np.ndarray:
    """Purify ``rho`` as sum_i sqrt(p_i) |i> x |i*>.

    Returns the unit-norm amplitudes on system x mirror, length dim**2, with
    component ``m*dim + p`` the coefficient of |m> x |p~> (mirror index
    second).  |i*> is the entrywise complex conjugate of eigenvector |i>, so
    the partial trace over the mirror factor recovers ``rho``.  Eigenvalues
    at or below zero (roundoff) are dropped; every positive one is kept,
    because dropping an eigenvalue p moves the entropy exchange by about
    -p log2 p (4e-11 bits at p = 1e-12).
    """
    spec = hermitian_eigensystem(rho.matrix)
    d = dim(rho)
    amplitudes = np.zeros(d * d, dtype=complex)
    for p_i, vec in zip(spec.eigenvalues, spec.eigenvectors.T):
        if p_i <= 0.0:
            continue
        amplitudes += np.sqrt(p_i) * np.kron(vec, vec.conj())
    return amplitudes


def apply_channel(channel: ChannelMap, rho: State) -> State:
    """Send ``rho`` through the channel: rho_out = sum_mn rho[m,n] s[m,n].

    Raises :class:`DimensionMismatch` if ``dim(rho) != channel.dim_in``, and
    :class:`OutputNotDensity` if the result fails density-matrix validation,
    which indicates a malformed transfer-operator family.
    """
    if dim(rho) != channel.dim_in:
        raise DimensionMismatch(f"state dim {dim(rho)} != channel input dim {channel.dim_in}")
    out = np.einsum("mn,mnab->ab", rho.matrix, channel.s)
    try:
        return State(out)
    except NotDensityMatrix as err:
        raise OutputNotDensity(f"channel output invalid: {err}") from err


def joint_output(channel: ChannelMap, rho: State) -> State:
    """Channel acting on one half of the purification of ``rho``.

    Returns the (dim_out*dim_in)-dimensional state obtained by sending the
    system factor of ``purify(rho)`` through the channel while the mirror
    factor passes untouched.  Row index is ``a*dim_in + p`` with ``a`` the
    output index and ``p`` the mirror index.  For the identity channel the
    result is the pure projector onto the purification.
    """
    d = dim(rho)
    if d != channel.dim_in:
        raise DimensionMismatch(f"state dim {d} != channel input dim {channel.dim_in}")
    psi = purify(rho).reshape(d, d)
    joint = np.einsum("mp,nq,mnab->apbq", psi, psi.conj(), channel.s)
    side = channel.dim_out * d
    try:
        return State(joint.reshape(side, side))
    except NotDensityMatrix as err:
        raise OutputNotDensity(f"joint output invalid: {err}") from err


def entropy_exchange(channel: ChannelMap, rho: State) -> float:
    """Entropy in bits of the joint output-mirror state."""
    return entropy(joint_output(channel, rho))


def coherent_information(channel: ChannelMap, rho: State) -> float:
    """Output entropy minus entropy exchange, in bits, with no flooring at zero."""
    return entropy(apply_channel(channel, rho)) - entropy_exchange(channel, rho)


# ------------------------------------------------------- Lambda channel table


def closed_form_channel(
    theta: float, gamma_t: float, alpha1: float, alpha2: float
) -> ChannelMap:
    """Transfer operators written out explicitly for the chi = pi/2 drive.

    Equivalent to ``channel_map`` at chi = pi/2, phi = 0 up to a fixed sign
    flip of the photon basis states, which leaves every spectrum (and hence
    every entropy) unchanged.  The arguments are not checked.
    """
    decay = math.exp(-gamma_t)
    emitted = math.sqrt(1.0 - decay)
    half_sq = math.sin(theta / 2.0) ** 2
    s = np.zeros((2, 2, 3, 3), dtype=complex)

    s[0, 0, 0, 0] = 1.0 - half_sq + decay * half_sq
    # Both off-diagonal entries carry the sin(theta) factor; they must be
    # conjugate partners or the map stops being completely positive.
    cross = 0.5j * math.sqrt(alpha1) * emitted * math.sin(theta)
    s[0, 0, 0, 1] = -cross
    s[0, 0, 1, 0] = cross
    s[0, 0, 1, 1] = alpha1 * (1.0 - decay) * half_sq
    s[0, 0, 2, 2] = alpha2 * (1.0 - decay) * half_sq

    swap = 1j * math.sqrt(alpha2) * emitted * math.sin(theta / 2.0)
    s[0, 1, 2, 0] = swap
    s[1, 0, 0, 2] = np.conj(swap)

    s[1, 1, 0, 0] = 1.0
    return ChannelMap(s)


# ------------------------------------------------------------ test points

POINT_NAMES = ("theta", "chi", "phi", "gamma_t", "asym", "rho11", "re_rho12", "im_rho12")


def oracle_points() -> list[tuple[float, ...]]:
    """Points at which to compare a route with the oracles, as values of ``POINT_NAMES``.

    Seeded random points, then the edge values theta = 0, gamma_t in
    {0, inf}, asym = 0, rho11 in {0, 1} and a pure input on the boundary
    |rho12|^2 = rho11 (1 - rho11).
    """
    rng = np.random.default_rng(31)
    points = []
    for _ in range(60):
        rho11 = rng.uniform(0.0, 1.0)
        coherence = rng.uniform(0.0, 1.0) * math.sqrt(rho11 * (1.0 - rho11))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        state = (rho11, coherence * math.cos(angle), coherence * math.sin(angle))
        gt = math.inf if rng.random() < 0.2 else rng.uniform(0.0, 8.0)
        points.append((
            rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, math.pi / 2),
            rng.uniform(-math.pi, math.pi), gt, rng.uniform(0.0, 2.0), *state,
        ))
    edge = math.sqrt(0.3 * 0.7)
    states = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.3, edge * math.cos(1.1), edge * math.sin(1.1)))
    for theta in (0.0, 1.3, math.pi):
        for gt in (0.0, 2.0, math.inf):
            for asym in (0.0, 1.0, 1.7):
                points.extend((theta, 0.7, 0.4, gt, asym, *state) for state in states)
    return points


# ------------------------------------------------------ benchmark reference


def load_benchmark_reference():
    """The benchmark's numpy-only evaluator, run from its source file, which it shares with no package code.

    Executed from source rather than imported, so that no bytecode cache is written next to it.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    module = types.ModuleType("benchmark_reference")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module
