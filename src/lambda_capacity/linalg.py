"""Entropy of a probability spectrum in bits.

The evaluator's two 3x3 spectra go through :func:`entropy_bits`, which
refuses a vector that is not a probability distribution up to roundoff.
Small stacks, such as one point's two spectra, are summed in Python floats.
"""

from __future__ import annotations

import math

import numpy as np

PROBABILITY_CLAMP = 1e-10
NORMALIZATION_TOL = 1e-8
# stacks of at most this many entries, such as the two spectra (6 entries) of a
# one-point call, are summed in Python floats: up to about 25 entries that is
# cheaper than numpy's fixed cost per call
FLOAT_ENTRIES = 16


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
    if rows.size <= FLOAT_ENTRIES:
        # a stack that fails a check goes on to the checks below, which word the error
        floats = [_float_entropy(row) for row in rows.tolist()]
        if None not in floats:
            entropy = np.array(floats, dtype=float)
            return float(entropy[0]) if p.ndim <= 1 else entropy.reshape(p.shape[:-1])
    # one min and one max over the whole stack find NaN, Inf and negative
    # entries; only a failed check looks for the first bad vector
    lowest, highest = rows.min(initial=0.0), rows.max(initial=0.0)
    if not (-np.inf < lowest and highest < np.inf):
        finite = np.isfinite(rows).all(axis=1)
        raise NotNormalized(f"probabilities contain NaN or Inf: {rows[np.argmin(finite)].tolist()}")
    if lowest < -PROBABILITY_CLAMP:
        negative = rows.min(axis=1, initial=0.0) < -PROBABILITY_CLAMP
        smallest = rows[np.argmax(negative)].min()
        raise NegativeProbability(f"probability {smallest:.3e} below -{PROBABILITY_CLAMP:.0e}")
    if lowest < 0.0:
        rows = np.where(rows < 0.0, 0.0, rows)
    total = rows.sum(axis=1)
    off = np.abs(total - 1.0) > NORMALIZATION_TOL
    if off.any():
        raise NotNormalized(f"probabilities sum to {float(total[np.argmax(off)])!r}, expected 1")
    # log2 at the positive entries only; a zero entry contributes 0
    logs = np.log2(rows, out=np.zeros_like(rows), where=rows > 0.0)
    entropy = -(rows * logs).sum(axis=1)
    entropy = np.where(entropy > 0.0, entropy, 0.0)
    return float(entropy[0]) if p.ndim <= 1 else entropy.reshape(p.shape[:-1])


def _float_entropy(row: list[float]) -> float | None:
    """The entropy of one vector in Python floats, or None if it fails a check of :func:`entropy_bits`."""
    if not all(-PROBABILITY_CLAMP <= x < math.inf for x in row):
        return None
    positive = [x for x in row if x > 0.0]  # entries in [-1e-10, 0] count as 0
    if not abs(sum(positive) - 1.0) <= NORMALIZATION_TOL:
        return None
    entropy = -sum(x * math.log2(x) for x in positive)
    return entropy if entropy > 0.0 else 0.0
