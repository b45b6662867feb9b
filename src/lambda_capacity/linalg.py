"""Entropy of a probability spectrum in bits.

:func:`entropy_bits` takes the evaluator's spectra over arrays, and refuses
a vector that is not a probability distribution up to roundoff.  One
point's two spectra, three Python floats each, go to :func:`_float_entropy`,
which runs the same checks in Python floats and leaves the wording of an
error to :func:`entropy_bits`.
"""

from __future__ import annotations

import math

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
    # the count of vectors is spelled out: reshape cannot infer it when the vectors are empty
    rows = np.atleast_2d(p) if p.ndim <= 2 else p.reshape(math.prod(p.shape[:-1]), p.shape[-1])
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
    total = _row_sums(rows)
    off = np.abs(total - 1.0) > NORMALIZATION_TOL
    if off.any():
        raise NotNormalized(f"probabilities sum to {float(total[np.argmax(off)])!r}, expected 1")
    # log2 at the positive entries only; a zero entry contributes 0
    logs = np.log2(rows, out=np.zeros_like(rows), where=rows > 0.0)
    entropy = -_row_sums(rows * logs)
    entropy = np.where(entropy > 0.0, entropy, 0.0)
    return float(entropy[0]) if p.ndim <= 1 else entropy.reshape(p.shape[:-1])


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """``rows.sum(axis=1)`` of a stack (N, n), bit for bit for n < 8, by adding its columns in turn.

    numpy's reduction over a short last axis pays for every row, so on the
    evaluator's (N, 3) spectra this is several times faster.  A stack of
    fewer vectors than entries keeps numpy's reduction.
    """
    if rows.shape[1] > len(rows):
        return rows.sum(axis=1)
    total = np.zeros(len(rows))
    for column in rows.T:
        total += column
    return total


def _float_entropy(row: list[float]) -> float | None:
    """The entropy of one vector of Python floats, or None if it fails a check of :func:`entropy_bits`."""
    total = entropy = 0.0
    for x in row:
        if not -PROBABILITY_CLAMP <= x < math.inf:
            return None
        if x > 0.0:  # entries in [-1e-10, 0] count as 0
            total += x
            entropy -= x * math.log2(x)
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        return None
    return entropy if entropy > 0.0 else 0.0
