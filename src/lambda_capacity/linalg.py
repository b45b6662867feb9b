"""Entropy of a probability spectrum in bits.

The evaluator's two 3x3 spectra and the classical baseline's distributions
both go through :func:`entropy_bits`, which refuses a vector that is not a
probability distribution up to roundoff.
"""

from __future__ import annotations

import numpy as np

PROBABILITY_CLAMP = 1e-10
NORMALIZATION_TOL = 1e-8


class NegativeProbability(ValueError):
    """Probability more negative than roundoff can explain."""


class NotNormalized(ValueError):
    """Probabilities do not sum to one."""


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
