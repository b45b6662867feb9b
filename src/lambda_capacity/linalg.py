"""Small dense complex linear algebra layer.

Everything downstream works with Hermitian matrices of dimension <= 9, so
this module only exposes what those callers need: an eigensystem with a
deterministic ordering convention, Kronecker products, and the entropy of a
probability spectrum in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
PROBABILITY_CLAMP = 1e-10
NORMALIZATION_TOL = 1e-8


class NotSquare(ValueError):
    """Matrix is not square."""


class NotHermitian(ValueError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class ConvergenceFailure(RuntimeError):
    """Eigensolver did not converge."""


class NegativeProbability(ValueError):
    """Probability more negative than roundoff can explain."""


class NotNormalized(ValueError):
    """Probabilities do not sum to one."""


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

    Descending order (largest eigenvalue first) is the fixed convention of
    this package; ties keep the solver's output order, so results are
    deterministic for golden tests.
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


def entropy_bits(probabilities: np.ndarray) -> float:
    """Shannon entropy -sum(p log2 p) of a probability vector, in bits.

    Entries in [-1e-10, 0) are treated as roundoff and clamped to zero;
    anything more negative signals an upstream positivity bug and raises
    instead of being silently absorbed, as does a NaN or Inf entry.
    """
    p = np.asarray(probabilities, dtype=float)
    if not np.all(np.isfinite(p)):
        raise NotNormalized(f"probabilities contain NaN or Inf: {p.tolist()}")
    smallest = p.min() if p.size else 0.0
    if smallest < -PROBABILITY_CLAMP:
        raise NegativeProbability(f"probability {smallest:.3e} below -{PROBABILITY_CLAMP:.0e}")
    p = np.where(p < 0.0, 0.0, p)
    total = p.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"probabilities sum to {total!r}, expected 1")
    pos = p[p > 0.0]
    return float(max(0.0, -(pos * np.log2(pos)).sum()))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with row index i*rows(b) + k."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
