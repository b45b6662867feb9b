"""Qubit input states and channel diagnostics.

``DensityMatrix`` validates one input state, the qubit in the emitter's two
ground levels, and ``density_mask`` applies the same checks to the three
numbers of many such states.  A channel from a ``dim_in``-level system to a
``dim_out``-level one is held in transfer-operator form: a family of
output-space matrices ``s[m, n]`` such that
``rho_out = sum_mn rho[m, n] * s[m, n]``; ``validate_channel`` checks its
physicality through the Choi matrix.  Information quantities of the Lambda
channel come from ``lambda_system``'s evaluator, not from this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DENSITY_TOL = 1e-10
CHOI_TOL = 1e-8


class NotDensityMatrix(ValueError):
    """Matrix fails the density-matrix invariants."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


@dataclass(frozen=True)
class DensityMatrix:
    """Validated qubit state: a 2x2 matrix, Hermitian, unit trace, positive semidefinite.

    Construction raises :class:`NotDensityMatrix` if any invariant is broken
    beyond a 1e-10 tolerance, so downstream code never needs to re-check.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise NotDensityMatrix(f"expected a 2x2 matrix, got shape {m.shape}")
        (a, b), (c, d) = m.tolist()
        for (passes, value), message in zip(_density_checks(a, b, c, d), DENSITY_MESSAGES):
            if not passes:
                raise NotDensityMatrix(message.format(v=value))
        object.__setattr__(self, "matrix", m)


# the message of each check of _density_checks, in its order, given the value checked
DENSITY_MESSAGES = (
    "matrix contains NaN or Inf entries",
    "Hermiticity deviation {v:.3e}",
    "trace {v} is not 1",
    "negative eigenvalue {v:.3e}",
)


def _density_checks(a, b, c, d):
    """The checks of :class:`DensityMatrix` on the entries [[a, b], [c, d]], in its order.

    The entries are Python numbers for one matrix, or arrays that broadcast
    for a stack; on arrays the caller keeps numpy quiet about overflow and
    invalid values, as :func:`density_mask` does.  One (passes, value) pair
    per check: finite entries, then Hermiticity deviation, trace and lowest
    eigenvalue within DENSITY_TOL, with ``value`` the quantity checked,
    which DENSITY_MESSAGES words.  The lowest eigenvalue of the Hermitian
    part [[p, h], [h*, q]] is (p + q)/2 - hypot((p - q)/2, |h|), each part
    halved before it is summed, so that entries near the float limit give
    -inf rather than NaN.
    """
    stack = any(isinstance(x, np.ndarray) for x in (a, b, c, d))
    hypot, larger = (np.hypot, np.maximum) if stack else (math.hypot, max)
    finite = True
    for x in (a, b, c, d):
        finite = finite & (abs(x.real) < math.inf) & (abs(x.imag) < math.inf)
    # the entries of m - m^H are 2i Im a and 2i Im d on the diagonal, b - c* and its conjugate off it
    deviation = larger(larger(2.0 * abs(a.imag), 2.0 * abs(d.imag)), hypot(b.real - c.real, b.imag + c.imag))
    trace = a + d
    unit_trace = hypot(trace.real - 1.0, trace.imag) <= DENSITY_TOL
    coherence = hypot(0.5 * b.real + 0.5 * c.real, 0.5 * b.imag - 0.5 * c.imag)
    lowest = (0.5 * a.real + 0.5 * d.real) - hypot(0.5 * a.real - 0.5 * d.real, coherence)
    return (
        (finite, finite),
        (deviation <= DENSITY_TOL, deviation),
        (unit_trace, trace),
        (lowest >= -DENSITY_TOL, lowest),
    )


def qubit_state(rho11: float, re_rho12: float = 0.0, im_rho12: float = 0.0) -> DensityMatrix:
    """Build a 2x2 density matrix from its three real parameters.

    ``rho11`` is the first diagonal element; the off-diagonal element is
    ``re_rho12 + i*im_rho12``.  Raises :class:`NotDensityMatrix` when the
    parameters leave the physical region |rho12|^2 <= rho11*(1 - rho11).
    """
    rho12 = complex(re_rho12, im_rho12)
    return DensityMatrix([[rho11, rho12], [rho12.conjugate(), 1.0 - rho11]])


def _coherence(re_rho12, im_rho12):
    """re_rho12 + i*im_rho12 without a multiply, which warns at an infinite part: a complex, or an array over arrays."""
    if not (isinstance(re_rho12, np.ndarray) or isinstance(im_rho12, np.ndarray)):
        return complex(re_rho12, im_rho12)
    rho12 = np.empty(np.broadcast_shapes(np.shape(re_rho12), np.shape(im_rho12)), dtype=complex)
    rho12.real = re_rho12
    rho12.imag = im_rho12
    return rho12


def density_mask(rho11, re_rho12, im_rho12):
    """True where :func:`qubit_state` accepts these numbers, by :class:`DensityMatrix`'s checks; elementwise over arrays."""
    rho12 = _coherence(re_rho12, im_rho12)
    if not isinstance(rho12, np.ndarray):
        return all(passes for passes, _ in _density_checks(rho11, rho12, rho12.conjugate(), 1.0 - rho11))
    # neither an overflow to inf nor a rejected NaN entry may warn
    with np.errstate(over="ignore", invalid="ignore"):
        checks = _density_checks(rho11, rho12, rho12.conjugate(), 1.0 - rho11)
    valid = True
    for passes, _ in checks:
        valid = valid & passes
    return valid


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
class ChannelReport:
    """Physicality diagnostics for a ChannelMap."""

    trace_deviation: float
    hermiticity_deviation: float
    min_choi_eigenvalue: float
    passes: bool


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
