"""States, channel diagnostics and the classical baseline.

``DensityMatrix`` validates one input state, and ``density_mask`` applies
the same checks to a stack of them.  A channel from a ``dim_in``-level
system to a ``dim_out``-level one is held in transfer-operator form: a
family of output-space matrices ``s[m, n]`` such that
``rho_out = sum_mn rho[m, n] * s[m, n]``; ``validate_channel`` checks its
physicality through the Choi matrix.  ``shannon_mutual_information`` is the
classical baseline.  Information quantities of the Lambda channel come from
``lambda_system``'s evaluator, not from this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NotNormalized, entropy_bits

DENSITY_TOL = 1e-10
CHOI_TOL = 1e-8


class NotDensityMatrix(ValueError):
    """Matrix fails the density-matrix invariants."""


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
        for passes, message in _density_checks(m[None]):
            if not passes[0]:
                raise NotDensityMatrix(message(0))
        object.__setattr__(self, "matrix", m)


def _density_checks(m: np.ndarray):
    """The checks of :class:`DensityMatrix` over a complex stack (..., d, d), in its order.

    One (passes, message) pair per check: finite entries, then Hermiticity deviation, trace and
    lowest eigenvalue within DENSITY_TOL.  ``passes`` is a boolean array (...); ``message(i)``
    describes the failure of matrix i of the flattened stack.
    """
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        # zero the rejected non-finite matrices so that the eigensolver never sees them
        m = np.where(finite[..., None, None], m, 0.0)
    adjoint = m.conj().swapaxes(-2, -1)
    with np.errstate(over="ignore"):
        deviation = np.abs(m - adjoint).max(axis=(-2, -1))
        trace = np.trace(m, axis1=-2, axis2=-1)
    # halve before adding: (m + m^H) / 2 overflows for entries near the
    # float limit, and NaN eigenvalues would then pass the check
    lowest = np.linalg.eigvalsh(m / 2.0 + adjoint / 2.0)[..., 0]  # ascending
    return (
        (finite, lambda i: "matrix contains NaN or Inf entries"),
        (deviation <= DENSITY_TOL, lambda i: f"Hermiticity deviation {deviation.flat[i]:.3e}"),
        (np.abs(trace - 1.0) <= DENSITY_TOL, lambda i: f"trace {complex(trace.flat[i])} is not 1"),
        (lowest >= -DENSITY_TOL, lambda i: f"negative eigenvalue {lowest.flat[i]:.3e}"),
    )


def maximally_mixed(dim: int) -> DensityMatrix:
    """The state I/dim."""
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def qubit_state(rho11: float, re_rho12: float = 0.0, im_rho12: float = 0.0) -> DensityMatrix:
    """Build a 2x2 density matrix from its three real parameters.

    ``rho11`` is the first diagonal element; the off-diagonal element is
    ``re_rho12 + i*im_rho12``.  Raises :class:`NotDensityMatrix` when the
    parameters leave the physical region |rho12|^2 <= rho11*(1 - rho11).
    """
    return DensityMatrix(qubit_matrices(rho11, re_rho12, im_rho12))


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

    The AND of the checks of :class:`DensityMatrix`, with the lowest
    eigenvalues from one batched ``eigvalsh`` over the stack.
    """
    checks = _density_checks(np.asarray(matrices, dtype=complex))
    (finite, _), (hermitian, _), (unit_trace, _), (positive, _) = checks
    return finite & hermitian & unit_trace & positive


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
            raise NotNormalized(f"table sums to {float(arr.sum())}, expected 1")
        object.__setattr__(self, "p", arr)


@dataclass(frozen=True)
class ChannelReport:
    """Physicality diagnostics for a ChannelMap."""

    trace_deviation: float
    hermiticity_deviation: float
    min_choi_eigenvalue: float
    passes: bool


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
