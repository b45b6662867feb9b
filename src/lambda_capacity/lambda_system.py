"""Channel model of a pulse-driven three-level emitter.

The system is a Lambda-type atom: two stable ground levels |1>, |2> holding
one qubit, and an excited level |3> coupled to both by optical transitions.
A short resonant two-tone pulse moves ground amplitude into |3>; the excited
level then decays, emitting a photon into one of two orthogonal wavepacket
modes (one per transition).  Tracing out the atom leaves a channel from the
ground-state qubit to the three-state photon field {vacuum, ph13, ph23},
which :func:`channel_map` builds in transfer-operator form from the pulse
and decay isometries, for :func:`channel.validate_channel` to check.

The atom purifies the field together with a mirror of the input, so the
coherent information of a point needs only two 3x3 states: the field state
and the atom state, whose entropy is the entropy exchange.  Both follow from
G = U rho U^dag, the atom state right after the pulse.  With the bright
state b = (e^{-i phi} sin chi, cos chi), k = cos(theta/2) - 1 and
q = b^dag rho b, its blocks are G_gg = rho + k (b (rho b)^dag + (rho b) b^dag)
+ k^2 q b b^dag, G_g3 = i sin(theta/2) (rho b + k q b) and
G_33 = sin^2(theta/2) q.  Decay keeps a fraction s^2 = e^{-gamma_t} of G_33
in |3> and moves E = 1 - s^2 of it to the ground levels and the photon
modes:

* atom state: G with row and column 3 scaled by s, plus alpha1 E G_33 on
  |1><1| and alpha2 E G_33 on |2><2|;
* field state: an arrow matrix with diagonal
  (G_11 + G_22 + s^2 G_33, alpha1 E G_33, alpha2 E G_33) and vacuum-photon
  entries sqrt(alpha_j E) G_j3.  Its ph13-ph23 entry is zero, so a diagonal
  phase change makes the vacuum-photon entries |G_j3| and the matrix real
  without moving its spectrum, and a real eigensolver suffices.

:func:`coherent_information_batch` evaluates many points at once this way;
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


def _spectra(theta, chi, phi, gamma_t, alpha1, rho) -> np.ndarray:
    """The field and atom spectra at many points, stacked: shape (2, ..., 3), each ascending.

    Takes the arguments of :func:`coherent_information_batch`, unvalidated;
    ``...`` is the shape of the points.  Works from G = U rho U^dag, the
    atom state right after the pulse; see the module docstring.
    """
    rho = np.asarray(rho)
    r11, r22, r12 = rho[..., 0, 0].real, rho[..., 1, 1].real, rho[..., 0, 1]
    # bright state b = (b1, b2); b2 is real
    b1 = np.exp(-1j * phi) * np.sin(chi)
    b2 = np.cos(chi)
    half = 0.5 * theta
    k = np.cos(half) - 1.0
    sine = np.sin(half)
    # v = rho b, q = b^dag rho b, c = v + (k q / 2) b, d = v + k q b
    v1 = r11 * b1 + r12 * b2
    v2 = r12.conjugate() * b1 + r22 * b2
    q = (b1.conjugate() * v1).real + b2 * v2.real
    kq = k * q
    c1 = v1 + 0.5 * kq * b1
    c2 = v2 + 0.5 * kq * b2
    d1 = v1 + kq * b1
    d2 = v2 + kq * b2
    # G_gg = rho + k (b c^dag + c b^dag), G_g3 = i sin(theta/2) d, G_33 = sin^2(theta/2) q
    g11 = r11 + 2.0 * k * (b1 * c1.conjugate()).real
    g22 = r22 + 2.0 * k * b2 * c2.real
    g12 = r12 + k * (b1 * c2.conjugate() + c1 * b2)
    g33 = sine * sine * q

    survive = np.exp(-0.5 * gamma_t)
    emitted = -np.expm1(-gamma_t)
    to1 = alpha1 * emitted
    to2 = (1.0 - alpha1) * emitted
    e1, e2, kept = to1 * g33, to2 * g33, survive * survive * g33
    shape = np.shape(e1)
    # eigvalsh reads the upper triangle only (UPLO="U")
    atom = np.zeros(shape + (3, 3), dtype=complex)
    atom[..., 0, 0] = g11 + e1
    atom[..., 1, 1] = g22 + e2
    atom[..., 2, 2] = kept
    atom[..., 0, 1] = g12
    scale = 1j * sine * survive
    atom[..., 0, 2] = scale * d1
    atom[..., 1, 2] = scale * d2
    field = np.zeros(shape + (3, 3))
    field[..., 0, 0] = g11 + g22 + kept
    field[..., 1, 1] = e1
    field[..., 2, 2] = e2
    magnitude = np.abs(sine)
    field[..., 0, 1] = np.sqrt(to1) * magnitude * np.abs(d1)
    field[..., 0, 2] = np.sqrt(to2) * magnitude * np.abs(d2)

    spectra = np.empty((2,) + shape + (3,))
    spectra[0] = np.linalg.eigvalsh(field, UPLO="U")
    spectra[1] = np.linalg.eigvalsh(atom, UPLO="U")
    return spectra


def coherent_information_batch(theta, chi, phi, gamma_t, alpha1, rho) -> np.ndarray:
    """Coherent information in bits at many parameter points at once.

    ``theta, chi, phi, gamma_t, alpha1`` are arrays of one shape (N,) (or
    any common shape) and ``rho`` holds the input density matrices, shape
    (N, 2, 2) or one (2, 2) shared by every point.  The inputs are not
    validated: callers check them first (:func:`params_mask`,
    ``channel.density_mask``).  Returns S(field) - S(atom), shape (N,).
    """
    entropy = entropy_bits(_spectra(theta, chi, phi, gamma_t, alpha1, rho))
    return entropy[0] - entropy[1]


def coherent_information_at(params: LambdaParams, rho: DensityMatrix) -> float:
    """Coherent information in bits of the channel at ``params`` for input ``rho``.

    The one-point call of :func:`coherent_information_batch`.
    """
    return float(coherent_information_batch(
        params.theta, params.chi, params.phi, params.gamma_t, params.alpha1, rho.matrix
    ))
