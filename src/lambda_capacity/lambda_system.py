"""Channel model of a pulse-driven three-level emitter.

The system is a Lambda-type atom: two stable ground levels |1>, |2> holding
one qubit, and an excited level |3> coupled to both by optical transitions.
A short resonant two-tone pulse moves ground amplitude into |3>; the excited
level then decays, emitting a photon into one of two orthogonal wavepacket
modes (one per transition).  Tracing out the atom leaves a channel from the
ground-state qubit to the three-state photon field {vacuum, ph13, ph23},
which this module builds in transfer-operator form, both constructively from
the pulse and decay isometries and from an explicit closed-form table.

The atom purifies the field together with a mirror of the input, so the
coherent information of a point needs only two 3x3 states of the composed
isometry W = V U: the field state and the atom state.
:func:`coherent_information_batch` evaluates many points at once;
:func:`coherent_information_at` is its one-point call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMap, DensityMatrix
from .linalg import entropy_bits

ALPHA_TOL = 1e-12


class InvalidAngle(ValueError):
    """Pulse angle outside its admissible range."""


class InvalidAlphas(ValueError):
    """Branching ratios or decay parameters are unphysical."""


@dataclass(frozen=True)
class LambdaParams:
    """Parameters of one pulse-then-decay cycle.

    gamma13, gamma23:
        Radiative decay rates of the 3->1 and 3->2 transitions (any common
        unit); only the branching ratios alpha1, alpha2 enter the channel.
    theta:
        Total action angle of the pulse pair, Omega * tau_p.
    chi:
        Intensity-distribution angle in [0, pi/2]: the 1<->3 tone has Rabi
        frequency Omega*sin(chi), the 2<->3 tone Omega*cos(chi).
    phi:
        Relative phase between the two tones.
    gamma_t:
        Dimensionless elapsed decay time gamma*t in [0, inf]; math.inf is
        the exact long-time limit.
    delta_R:
        Two-photon detuning; only 0 is supported.
    """

    gamma13: float = 1.0
    gamma23: float = 1.0
    theta: float = math.pi
    chi: float = math.pi / 2
    phi: float = 0.0
    gamma_t: float = math.inf
    delta_R: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma13) and math.isfinite(self.gamma23)):
            raise InvalidAlphas("decay rates must be finite")
        if self.gamma13 < 0.0 or self.gamma23 < 0.0 or self.gamma13 + self.gamma23 <= 0.0:
            raise InvalidAlphas(
                f"need gamma13, gamma23 >= 0 with a positive sum, got "
                f"({self.gamma13}, {self.gamma23})"
            )
        if math.isnan(self.gamma_t) or self.gamma_t < 0.0:
            raise InvalidAlphas(f"gamma_t must lie in [0, inf], got {self.gamma_t}")
        _check_angles(self.theta, self.chi, self.phi)
        if self.delta_R != 0.0:
            raise ValueError("only zero two-photon detuning is supported")

    @property
    def alpha1(self) -> float:
        """Branching ratio of the 3->1 transition."""
        return self.gamma13 / (self.gamma13 + self.gamma23)

    @property
    def alpha2(self) -> float:
        """Branching ratio of the 3->2 transition; alpha1 + alpha2 == 1 exactly."""
        return 1.0 - self.alpha1


def _check_angles(theta: float, chi: float, phi: float) -> None:
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise InvalidAngle(f"theta and phi must be finite, got ({theta}, {phi})")
    if not (math.isfinite(chi) and 0.0 <= chi <= math.pi / 2):
        raise InvalidAngle(f"chi must lie in [0, pi/2], got {chi}")


def _check_alphas(alpha1: float, alpha2: float, gamma_t: float) -> None:
    if alpha1 < 0.0 or alpha2 < 0.0 or abs(alpha1 + alpha2 - 1.0) > ALPHA_TOL:
        raise InvalidAlphas(f"branching ratios ({alpha1}, {alpha2}) must be >= 0 and sum to 1")
    if math.isnan(gamma_t) or gamma_t < 0.0:
        raise InvalidAlphas(f"gamma_t must lie in [0, inf], got {gamma_t}")


def pulse_propagator(theta: float, chi: float, phi: float = 0.0) -> np.ndarray:
    """Ground-subspace block of the resonant pulse propagator.

    Returns the 3x2 matrix whose columns are the images of |1> and |2> under
    exp(-i H tau_p), with the rotating-frame Hamiltonian
    H = (1/2) [Omega1 e^{i phi} |3><1| + Omega2 |3><2| + h.c.],
    Omega1 = Omega sin(chi), Omega2 = Omega cos(chi), Omega tau_p = theta.
    H couples |3> only to the bright state b = e^{-i phi} sin(chi)|1> +
    cos(chi)|2>, so exp(-i H tau_p) = |d><d| + cos(theta/2)(|b><b| + |3><3|)
    - i sin(theta/2)(|3><b| + |b><3|), with d the dark ground state.
    """
    _check_angles(theta, chi, phi)
    return _pulse(theta, chi, phi)


def _pulse(theta, chi, phi) -> np.ndarray:
    """Unchecked :func:`pulse_propagator` over angle arrays of shape (...): (..., 3, 2)."""
    theta, chi, phi = np.broadcast_arrays(theta, chi, phi)
    bright = np.stack([np.exp(-1j * phi) * np.sin(chi), np.cos(chi).astype(complex)], axis=-1)
    half = 0.5 * theta
    outer = bright[..., :, None] * bright.conj()[..., None, :]
    u = np.empty(theta.shape + (3, 2), dtype=complex)
    u[..., :2, :] = np.eye(2) + (np.cos(half) - 1.0)[..., None, None] * outer
    u[..., 2, :] = -1j * np.sin(half)[..., None] * bright.conj()
    return u


def decay_isometry(alpha1: float, alpha2: float, gamma_t: float) -> np.ndarray:
    """Radiative-decay isometry from the atom into atom x field.

    Ground levels keep the field in vacuum; the excited level survives with
    amplitude e^{-gamma_t/2} and otherwise decays to |1>|ph13> or |2>|ph23>
    with weights alpha1, alpha2.  Rows are ordered atom-major:
    (1,0), (1,ph13), (1,ph23), (2,0), ..., (3,ph23).
    """
    _check_alphas(alpha1, alpha2, gamma_t)
    return _decay(alpha1, alpha2, gamma_t)


def _decay(alpha1, alpha2, gamma_t) -> np.ndarray:
    """Unchecked :func:`decay_isometry` over arrays of shape (...): (..., 9, 3)."""
    alpha1, alpha2, gamma_t = np.broadcast_arrays(alpha1, alpha2, gamma_t)
    emitted = np.sqrt(1.0 - np.exp(-gamma_t))
    v = np.zeros(gamma_t.shape + (9, 3), dtype=complex)
    v[..., 0, 0] = 1.0
    v[..., 3, 1] = 1.0
    v[..., 6, 2] = np.exp(-0.5 * gamma_t)
    v[..., 1, 2] = emitted * np.sqrt(alpha1)
    v[..., 5, 2] = emitted * np.sqrt(alpha2)
    return v


def _isometry(theta, chi, phi, gamma_t, alpha1) -> np.ndarray:
    """W = V U, the pulse then the decay, as a (..., 3 atom, 3 field, 2 input) array."""
    w = _decay(alpha1, 1.0 - np.asarray(alpha1), gamma_t) @ _pulse(theta, chi, phi)
    return w.reshape(w.shape[:-2] + (3, 3, 2))


def params_mask(gamma13, gamma23, theta, chi, phi, gamma_t) -> np.ndarray:
    """Elementwise: True where ``LambdaParams`` accepts these values (delta_R = 0).

    The same conditions as :class:`LambdaParams` and its angle check, over
    broadcast arrays, for callers that validate many points at once.
    """
    with np.errstate(invalid="ignore"):
        rates = np.isfinite(gamma13) & np.isfinite(gamma23)
        rates &= (gamma13 >= 0.0) & (gamma23 >= 0.0) & (gamma13 + gamma23 > 0.0)
        decay = ~np.isnan(gamma_t) & (gamma_t >= 0.0)
        angles = np.isfinite(theta) & np.isfinite(phi)
        angles &= np.isfinite(chi) & (chi >= 0.0) & (chi <= math.pi / 2)
    return rates & decay & angles


def channel_map(params: LambdaParams) -> ChannelMap:
    """Assemble the qubit -> photon-field channel for the given parameters.

    Traces the atom out of W = V U:
    s[m, n][a, b] = sum_k W[k,a,m] * conj(W[k,b,n]).
    """
    w = _isometry(params.theta, params.chi, params.phi, params.gamma_t, params.alpha1)
    return ChannelMap(np.einsum("kam,kbn->mnab", w, w.conj()))


def coherent_information_batch(theta, chi, phi, gamma_t, alpha1, rho) -> np.ndarray:
    """Coherent information in bits at many parameter points at once.

    ``theta, chi, phi, gamma_t, alpha1`` are arrays of one shape (N,) (or
    any common shape) and ``rho`` holds the input density matrices, shape
    (N, 2, 2) or one (2, 2) shared by every point.  The inputs are not
    validated: callers check them first (:func:`params_mask`,
    ``channel.density_mask``).  W rho W^dag is pure on atom x field x mirror
    once rho is purified, so the entropy exchange equals the entropy of the
    atom state Tr_field[W rho W^dag] and I_c = S(field) - S(atom), from two
    batched 3x3 spectra.  Returns an array of shape (N,).
    """
    w = _isometry(theta, chi, phi, gamma_t, alpha1)
    image = w @ np.asarray(rho)[..., None, :, :]
    field = np.einsum("...kam,...kbm->...ab", image, w.conj())
    atom = np.einsum("...kam,...lam->...kl", image, w.conj())
    return entropy_bits(np.linalg.eigvalsh(field)) - entropy_bits(np.linalg.eigvalsh(atom))


def coherent_information_at(params: LambdaParams, rho: DensityMatrix) -> float:
    """Coherent information in bits of the channel at ``params`` for input ``rho``.

    The one-point call of :func:`coherent_information_batch`.  Agrees with
    ``coherent_information(channel_map(params), rho)``, which goes through
    the 6x6 field-mirror state instead.
    """
    return float(coherent_information_batch(
        params.theta, params.chi, params.phi, params.gamma_t, params.alpha1, rho.matrix
    ))


def closed_form_channel(
    theta: float, gamma_t: float, alpha1: float, alpha2: float
) -> ChannelMap:
    """Transfer operators written out explicitly for the chi = pi/2 drive.

    Equivalent to :func:`channel_map` at chi = pi/2, phi = 0 up to a fixed
    sign flip of the photon basis states, which leaves every spectrum (and
    hence every entropy) unchanged.  Kept as an independent construction so
    the two routes can cross-check each other.
    """
    _check_angles(theta, math.pi / 2, 0.0)
    _check_alphas(alpha1, alpha2, gamma_t)
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
