"""Independent reference evaluator for the benchmark's output checks.

Uses numpy only and shares no code with the package under test.  It takes a
different route to every quantity:

* the pulse propagator comes from its closed form on the bright/dark basis,
  exp(-iH) = |d><d| + cos(theta/2)(|b><b| + |3><3|)
             - i sin(theta/2)(|3><b| + |b><3|),
  with bright state b = e^{-i phi} sin(chi)|1> + cos(chi)|2>, so no
  eigensolver is needed;
* the decay isometry is written out here;
* the entropy exchange S_e is the entropy of the 3x3 atom state
  Tr_field[W rho W^dag] (the atom purifies field x mirror), not of the 6x6
  field-mirror state the package builds.

Every function is batched over a leading axis of N parameter points.
"""

from __future__ import annotations

import numpy as np


def entropy(probabilities: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis; roundoff negatives count as 0."""
    p = np.clip(probabilities, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return terms.sum(axis=-1)


def state(rho11, re_rho12=0.0, im_rho12=0.0) -> np.ndarray:
    """Qubit density matrices, shape (N, 2, 2)."""
    rho11 = np.atleast_1d(np.asarray(rho11, dtype=float))
    off = np.broadcast_to(np.asarray(re_rho12) + 1j * np.asarray(im_rho12), rho11.shape)
    rho = np.empty(rho11.shape + (2, 2), dtype=complex)
    rho[..., 0, 0] = rho11
    rho[..., 0, 1] = off
    rho[..., 1, 0] = np.conj(off)
    rho[..., 1, 1] = 1.0 - rho11
    return rho


def isometry(theta, chi, phi, gamma_t, asym) -> np.ndarray:
    """W = V U restricted to the ground qubit: shape (N, atom 3, field 3, qubit 2)."""
    theta, chi, phi, gamma_t, asym = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (theta, chi, phi, gamma_t, asym))
    )
    n = theta.shape[0]
    bright = np.zeros((n, 3), dtype=complex)
    bright[:, 0] = np.exp(-1j * phi) * np.sin(chi)
    bright[:, 1] = np.cos(chi)
    excited = np.zeros((n, 3), dtype=complex)
    excited[:, 2] = 1.0
    c = np.cos(theta / 2.0)[:, None, None]
    s = np.sin(theta / 2.0)[:, None, None]
    bb = bright[:, :, None] * bright.conj()[:, None, :]
    ee = excited[:, :, None] * excited[:, None, :]
    eb = excited[:, :, None] * bright.conj()[:, None, :]
    pulse = np.eye(3) - bb - ee + c * (bb + ee) - 1j * s * (eb + eb.conj().transpose(0, 2, 1))
    ground = pulse[:, :, :2]  # images of |1> and |2>

    # decay: |3> -> e^{-gt/2}|3,0> + sqrt(1 - e^{-gt}) (sqrt(a1)|1,ph13> + sqrt(a2)|2,ph23>)
    alpha1 = asym / (asym + 1.0)
    alpha2 = 1.0 / (asym + 1.0)
    survive = np.exp(-0.5 * gamma_t)
    emitted = np.sqrt(-np.expm1(-gamma_t))
    w = np.zeros((n, 3, 3, 2), dtype=complex)
    w[:, 0, 0, :] = ground[:, 0, :]
    w[:, 1, 0, :] = ground[:, 1, :]
    w[:, 2, 0, :] = survive[:, None] * ground[:, 2, :]
    w[:, 0, 1, :] = (emitted * np.sqrt(alpha1))[:, None] * ground[:, 2, :]
    w[:, 1, 2, :] = (emitted * np.sqrt(alpha2))[:, None] * ground[:, 2, :]
    return w


def evaluate(theta, chi, phi, gamma_t, asym, rho: np.ndarray) -> dict[str, np.ndarray]:
    """I_c and its parts at N points; ``rho`` is (N, 2, 2) or one (2, 2) state."""
    w = isometry(theta, chi, phi, gamma_t, asym)
    rho = np.broadcast_to(rho, (w.shape[0], 2, 2))
    field = np.einsum("nkam,nmp,nkbp->nab", w, rho, w.conj())
    atom = np.einsum("nkam,nmp,nlap->nkl", w, rho, w.conj())
    field_spectrum = np.linalg.eigvalsh(field)[:, ::-1]
    atom_spectrum = np.linalg.eigvalsh(atom)[:, ::-1]
    s_out = entropy(field_spectrum)
    s_e = entropy(atom_spectrum)
    return {
        "Ic": s_out - s_e,
        "S_out": s_out,
        "S_e": s_e,
        "S_in": entropy(np.linalg.eigvalsh(rho)),
        "field_spectrum": field_spectrum,
        "atom_spectrum": atom_spectrum,
    }


def physical(rho11, re_rho12=0.0, im_rho12=0.0) -> np.ndarray:
    """Whether the qubit parameters give a positive semidefinite state."""
    rho11 = np.asarray(rho11, dtype=float)
    coherence = np.asarray(re_rho12) ** 2 + np.asarray(im_rho12) ** 2
    return (rho11 >= 0.0) & (rho11 <= 1.0) & (coherence <= rho11 * (1.0 - rho11) + 1e-12)
