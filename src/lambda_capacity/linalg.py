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


def entropy_bits(probabilities: np.ndarray) -> float | np.ndarray:
    """Shannon entropy -sum(p log2 p) of a probability vector, in bits.

    A stack of vectors (..., n) gives one entropy per vector, taken along
    the last axis; a single vector gives a float.  Entries in [-1e-10, 0)
    are treated as roundoff and clamped to zero; anything more negative
    signals an upstream positivity bug and raises instead of being silently
    absorbed, as does a NaN or Inf entry.  A bad vector in a stack raises
    for the first such vector.
    """
    p = np.asarray(probabilities, dtype=float)
    rows = np.atleast_2d(p) if p.ndim <= 2 else p.reshape(-1, p.shape[-1])
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise NotNormalized(f"probabilities contain NaN or Inf: {rows[np.argmin(finite)].tolist()}")
    negative = rows.min(axis=1, initial=0.0) < -PROBABILITY_CLAMP
    if negative.any():
        smallest = rows[np.argmax(negative)].min()
        raise NegativeProbability(f"probability {smallest:.3e} below -{PROBABILITY_CLAMP:.0e}")
    rows = np.where(rows < 0.0, 0.0, rows)
    total = rows.sum(axis=1)
    off = np.abs(total - 1.0) > NORMALIZATION_TOL
    if off.any():
        raise NotNormalized(f"probabilities sum to {float(total[np.argmax(off)])!r}, expected 1")
    positive = rows > 0.0
    terms = np.where(positive, rows * np.log2(np.where(positive, rows, 1.0)), 0.0)
    entropy = -terms.sum(axis=1)
    entropy = np.where(entropy > 0.0, entropy, 0.0)
    return float(entropy[0]) if p.ndim <= 1 else entropy.reshape(p.shape[:-1])


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with row index i*rows(b) + k."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
