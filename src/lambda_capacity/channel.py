"""Finite-dimensional quantum channel engine.

A channel from a ``dim_in``-level system to a ``dim_out``-level one is held
in transfer-operator form: a family of output-space matrices ``s[m, n]``
such that ``rho_out = sum_mn rho[m, n] * s[m, n]``.  On top of that sit the
derived information quantities: output entropy, entropy exchange (entropy of
the channel acting on one half of a purification), coherent information, and
the classical mutual-information baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NotNormalized, entropy_bits, hermitian_eigensystem, kron

DENSITY_TOL = 1e-10
CHOI_TOL = 1e-8


class NotDensityMatrix(ValueError):
    """Matrix fails the density-matrix invariants."""


class OutputNotDensity(NotDensityMatrix):
    """A channel produced an invalid output state (malformed map)."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite.

    Construction raises :class:`NotDensityMatrix` if any invariant is broken
    beyond a 1e-10 tolerance, so downstream code never needs to re-check.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotDensityMatrix(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NotDensityMatrix("matrix contains NaN or Inf entries")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > DENSITY_TOL:
            raise NotDensityMatrix(f"Hermiticity deviation {herm:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > DENSITY_TOL:
            raise NotDensityMatrix(f"trace {tr!r} is not 1")
        # halve before adding: (m + m^H) / 2 overflows for entries near the
        # float limit, and NaN eigenvalues would then pass the check below
        lowest = float(np.linalg.eigvalsh(m / 2.0 + m.conj().T / 2.0).min())
        if lowest < -DENSITY_TOL:
            raise NotDensityMatrix(f"negative eigenvalue {lowest:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, descending."""
        return hermitian_eigensystem(self.matrix).eigenvalues

    def entropy(self) -> float:
        """Von Neumann entropy in bits."""
        return entropy_bits(self.spectrum())


def maximally_mixed(dim: int) -> DensityMatrix:
    """The state I/dim."""
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def qubit_state(rho11: float, re_rho12: float = 0.0, im_rho12: float = 0.0) -> DensityMatrix:
    """Build a 2x2 density matrix from its three real parameters.

    ``rho11`` is the first diagonal element; the off-diagonal element is
    ``re_rho12 + i*im_rho12``.  Raises :class:`NotDensityMatrix` when the
    parameters leave the physical region |rho12|^2 <= rho11*(1 - rho11).
    """
    off = complex(re_rho12, im_rho12)
    m = np.array([[rho11, off], [off.conjugate(), 1.0 - rho11]], dtype=complex)
    return DensityMatrix(m)


def qubit_matrices(rho11, re_rho12, im_rho12) -> np.ndarray:
    """The matrices of :func:`qubit_state` for arrays of shape (...), unvalidated: (..., 2, 2)."""
    rho11, re_rho12, im_rho12 = np.broadcast_arrays(rho11, re_rho12, im_rho12)
    m = np.empty(rho11.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = rho11
    m[..., 0, 1].real = re_rho12
    m[..., 0, 1].imag = im_rho12
    m[..., 1, 0] = m[..., 0, 1].conj()
    m[..., 1, 1] = 1.0 - rho11
    return m


def density_mask(matrices: np.ndarray) -> np.ndarray:
    """Elementwise over a stack (..., d, d): True where ``DensityMatrix`` accepts the matrix.

    The same checks and tolerances as :class:`DensityMatrix`, with the
    lowest eigenvalue from one batched ``eigvalsh`` over the stack.
    """
    m = np.asarray(matrices, dtype=complex)
    finite = np.isfinite(m).all(axis=(-2, -1))
    # zero the rejected non-finite matrices so that the eigensolver never sees them
    m = np.where(finite[..., None, None], m, 0.0)
    adjoint = m.conj().swapaxes(-2, -1)
    with np.errstate(over="ignore"):
        hermitian = np.abs(m - adjoint).max(axis=(-2, -1)) <= DENSITY_TOL
        unit_trace = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0) <= DENSITY_TOL
    lowest = np.linalg.eigvalsh(m / 2.0 + adjoint / 2.0).min(axis=-1)
    return finite & hermitian & unit_trace & (lowest >= -DENSITY_TOL)


@dataclass(frozen=True)
class ChannelMap:
    """Transfer-operator family ``s[m, n]``, each a dim_out x dim_out matrix.

    ``s`` has shape (dim_in, dim_in, dim_out, dim_out).  Construction checks
    shape only; use :func:`validate_channel` for the physicality diagnostics
    (trace preservation, Hermitian pairing, Choi positivity), which must be
    able to report on deliberately broken maps.
    """

    s: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.s, dtype=complex)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise DimensionMismatch(f"expected (din, din, dout, dout), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DimensionMismatch("transfer operators contain NaN or Inf entries")
        object.__setattr__(self, "s", arr)

    @property
    def dim_in(self) -> int:
        return self.s.shape[0]

    @property
    def dim_out(self) -> int:
        return self.s.shape[2]


def identity_channel(dim: int) -> ChannelMap:
    """The noiseless channel: s[m, n] = |m><n|."""
    s = np.zeros((dim, dim, dim, dim), dtype=complex)
    for m in range(dim):
        for n in range(dim):
            s[m, n, m, n] = 1.0
    return ChannelMap(s)


@dataclass(frozen=True)
class PurifiedState:
    """Pure state on system x mirror whose partial trace is a given state.

    ``amplitudes`` has length dim**2 with component ``m*dim + p`` holding the
    coefficient of |m> x |p~> (mirror index second).
    """

    dim: int
    amplitudes: np.ndarray


@dataclass(frozen=True)
class JointProbabilityTable:
    """Joint distribution p(x, y) over input rows and output columns."""

    p: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D table, got shape {arr.shape}")
        if arr.size == 0 or arr.min() < 0.0 or not np.all(np.isfinite(arr)):
            raise ValueError("table entries must be finite and non-negative")
        if abs(arr.sum() - 1.0) > DENSITY_TOL:
            raise NotNormalized(f"table sums to {arr.sum()!r}, expected 1")
        object.__setattr__(self, "p", arr)


@dataclass(frozen=True)
class ChannelReport:
    """Physicality diagnostics for a ChannelMap."""

    trace_deviation: float
    hermiticity_deviation: float
    min_choi_eigenvalue: float
    passes: bool


def purify(rho: DensityMatrix) -> PurifiedState:
    """Purify ``rho`` as sum_i sqrt(p_i) |i> x |i*>.

    Parameters
    ----------
    rho:
        State to purify.

    Returns
    -------
    PurifiedState
        Unit-norm vector on the doubled space; |i*> is the entrywise
        complex conjugate of eigenvector |i>, so the partial trace over the
        mirror factor recovers ``rho``.  Eigenvalues at or below zero
        (roundoff) are dropped; every positive one is kept, because
        dropping an eigenvalue p moves the entropy exchange by about
        -p log2 p (4e-11 bits at p = 1e-12).
    """
    spec = hermitian_eigensystem(rho.matrix)
    dim = rho.dim
    amplitudes = np.zeros(dim * dim, dtype=complex)
    for p_i, vec in zip(spec.eigenvalues, spec.eigenvectors.T):
        if p_i <= 0.0:
            continue
        amplitudes += np.sqrt(p_i) * kron(vec, vec.conj())
    return PurifiedState(dim=dim, amplitudes=amplitudes)


def apply_channel(channel: ChannelMap, rho: DensityMatrix) -> DensityMatrix:
    """Send ``rho`` through the channel: rho_out = sum_mn rho[m,n] s[m,n].

    Raises
    ------
    DimensionMismatch
        If ``rho.dim != channel.dim_in``.
    OutputNotDensity
        If the result fails density-matrix validation, which indicates a
        malformed transfer-operator family rather than a bad input.
    """
    if rho.dim != channel.dim_in:
        raise DimensionMismatch(f"state dim {rho.dim} != channel input dim {channel.dim_in}")
    out = np.einsum("mn,mnab->ab", rho.matrix, channel.s)
    try:
        return DensityMatrix(out)
    except NotDensityMatrix as err:
        raise OutputNotDensity(f"channel output invalid: {err}") from err


def joint_output(channel: ChannelMap, rho: DensityMatrix) -> DensityMatrix:
    """Channel acting on one half of the purification of ``rho``.

    Returns the (dim_out*dim_in)-dimensional state obtained by sending the
    system factor of ``purify(rho)`` through the channel while the mirror
    factor passes untouched.  Row index is ``a*dim_in + p`` with ``a`` the
    output index and ``p`` the mirror index.  For the identity channel the
    result is the pure projector onto the purification.
    """
    if rho.dim != channel.dim_in:
        raise DimensionMismatch(f"state dim {rho.dim} != channel input dim {channel.dim_in}")
    psi = purify(rho).amplitudes.reshape(rho.dim, rho.dim)
    joint = np.einsum("mp,nq,mnab->apbq", psi, psi.conj(), channel.s)
    side = channel.dim_out * rho.dim
    try:
        return DensityMatrix(joint.reshape(side, side))
    except NotDensityMatrix as err:
        raise OutputNotDensity(f"joint output invalid: {err}") from err


def entropy_exchange(channel: ChannelMap, rho: DensityMatrix) -> float:
    """Entropy in bits of the joint output-mirror state."""
    return joint_output(channel, rho).entropy()


def coherent_information(channel: ChannelMap, rho: DensityMatrix) -> float:
    """Output entropy minus entropy exchange, in bits.

    May be negative (for example, a channel that discards its input and
    emits a fixed pure state yields minus the input entropy); no flooring
    at zero is applied.
    """
    return apply_channel(channel, rho).entropy() - entropy_exchange(channel, rho)


def shannon_mutual_information(table: JointProbabilityTable) -> float:
    """Mutual information of a joint distribution: H(X) + H(Y) - H(X,Y)."""
    p = table.p
    return (
        entropy_bits(p.sum(axis=1))
        + entropy_bits(p.sum(axis=0))
        - entropy_bits(p.reshape(-1))
    )


def choi_matrix(channel: ChannelMap) -> np.ndarray:
    """Block matrix with block (m, n) equal to s[m, n]; PSD iff the map is CP."""
    din, dout = channel.dim_in, channel.dim_out
    return channel.s.transpose(0, 2, 1, 3).reshape(din * dout, din * dout)


def validate_channel(channel: ChannelMap) -> ChannelReport:
    """Diagnose trace preservation, Hermitian pairing, and Choi positivity.

    Never raises; the report's ``passes`` flag summarizes whether every
    deviation is within tolerance (1e-10 for traces and pairing, -1e-8 for
    the smallest Choi eigenvalue).
    """
    s = channel.s
    din = channel.dim_in
    traces = np.einsum("mnaa->mn", s)
    trace_dev = float(np.max(np.abs(traces - np.eye(din))))
    herm_dev = float(np.max(np.abs(s - s.conj().transpose(1, 0, 3, 2))))
    choi = choi_matrix(channel)
    min_choi = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2.0).min())
    passes = trace_dev <= DENSITY_TOL and herm_dev <= DENSITY_TOL and min_choi >= -CHOI_TOL
    return ChannelReport(trace_dev, herm_dev, min_choi, passes)
