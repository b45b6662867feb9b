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
  |1><1| and alpha2 E G_33 on |2><2|, alpha2 = 1 - alpha1;
* field state: an arrow matrix with diagonal
  (G_11 + G_22 + s^2 G_33, alpha1 E G_33, alpha2 E G_33) and vacuum-photon
  entries sqrt(alpha_j E) G_j3.  Its ph13-ph23 entry is zero, so a diagonal
  phase change makes the vacuum-photon entries |G_j3| and the matrix real
  without moving its spectrum.

:func:`coherent_information_batch` evaluates many points at once this way;
:func:`coherent_information_at` is its one-point call.  A call over arrays,
such as a sweep block, takes both spectra from the trigonometric closed form
for 3x3 Hermitian matrices (Smith, Commun. ACM 4, 168 (1961)), and LAPACK's
``eigvalsh`` only at the points the closed form cannot resolve: a
near-double eigenvalue pair next to a small eigenvalue.  A call at one
point, such as each simplex step, runs the same arithmetic on Python
floats, entropies included.  It resolves such a point by an exact split
where a row of the state is decoupled up to roundoff, and calls LAPACK
only where that fails too (see :func:`_eigvalsh3`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .channel import ChannelMap, DensityMatrix
from .linalg import _float_entropy, entropy_bits

# matrices that the closed form leaves unresolved: 1 - |r| below DEGENERATE_TOL and
# the smallest eigenvalue below SMALL_EIGENVALUE (see _eigvalsh3)
DEGENERATE_TOL = 1e-2
SMALL_EIGENVALUE = 1e-2
# the unit roundoff scale of the exact split in _eigvalsh3
EPSILON = math.ulp(1.0)


class InvalidAngle(ValueError):
    """Pulse angle outside its admissible range."""


class InvalidAlphas(ValueError):
    """Branching ratios or decay parameters are unphysical."""


# The physical parameter region, one rule per entry, in the order in which
# LambdaParams checks them: (error, message template, condition).  A condition
# takes the fields as attributes and uses only comparisons, abs, & and +, so it
# holds on floats and on arrays alike, and fails at NaN.  The rate sum adds
# magnitudes, so that rates of inf and -inf make no NaN, which numpy warns about.
PARAM_RULES = (
    (InvalidAlphas, "decay rates must be finite",
     lambda p: (abs(p.gamma13) < math.inf) & (abs(p.gamma23) < math.inf)),
    (InvalidAlphas, "need gamma13, gamma23 >= 0 with a positive sum, got ({p.gamma13}, {p.gamma23})",
     lambda p: (p.gamma13 >= 0.0) & (p.gamma23 >= 0.0) & (abs(p.gamma13) + abs(p.gamma23) > 0.0)),
    (InvalidAlphas, "gamma_t must lie in [0, inf], got {p.gamma_t}", lambda p: p.gamma_t >= 0.0),
    (InvalidAngle, "theta and phi must be finite, got ({p.theta}, {p.phi})",
     lambda p: (abs(p.theta) < math.inf) & (abs(p.phi) < math.inf)),
    (InvalidAngle, "chi must lie in [0, pi/2], got {p.chi}", lambda p: (p.chi >= 0.0) & (p.chi <= math.pi / 2)),
    (ValueError, "only zero two-photon detuning is supported", lambda p: p.delta_R == 0.0),
)


@dataclass(frozen=True)
class LambdaParams:
    """Parameters of one pulse-then-decay cycle: one point of the model.

    gamma13, gamma23:
        Radiative decay rates of the 3->1 and 3->2 transitions (any common
        unit); only the branching ratio alpha1 enters the channel.
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
        for error, message, holds in PARAM_RULES:
            if not holds(self):
                raise error(message.format(p=self))

    @property
    def alpha1(self) -> float:
        """Branching ratio of the 3->1 transition."""
        total = self.gamma13 + self.gamma23
        if math.isinf(total):
            # two rates near the float limit: halving them is exact and keeps the sum finite
            return (0.5 * self.gamma13) / (0.5 * self.gamma13 + 0.5 * self.gamma23)
        return self.gamma13 / total


def _pulse(theta, chi, phi) -> np.ndarray:
    """The pulse propagator's ground columns U|1>, U|2> at one point: a (3, 2) array.

    The rotating-frame H = (Omega/2) [sin(chi) e^{i phi} |3><1| + cos(chi) |3><2| + h.c.],
    Omega tau_p = theta, couples |3> only to the bright state b, so U = exp(-i H tau_p) =
    |d><d| + cos(theta/2)(|b><b| + |3><3|) - i sin(theta/2)(|3><b| + |b><3|), d the dark state.
    """
    bright = np.array([np.exp(-1j * phi) * np.sin(chi), np.cos(chi)], dtype=complex)
    half = 0.5 * theta
    u = np.empty((3, 2), dtype=complex)
    u[:2] = np.eye(2) + (np.cos(half) - 1.0) * np.outer(bright, bright.conj())
    u[2] = -1j * np.sin(half) * bright.conj()
    return u


def _decay(alpha1, gamma_t) -> np.ndarray:
    """The decay isometry from the atom into atom x field at one point: a (9, 3) array.

    The excited level survives with amplitude e^{-gamma_t/2} and otherwise decays to |1>|ph13> or
    |2>|ph23> with weights alpha1, 1 - alpha1; the ground levels keep the field in vacuum.  Rows are
    atom-major: (1,0), (1,ph13), (1,ph23), (2,0), ..., (3,ph23).
    """
    emitted = np.sqrt(1.0 - np.exp(-gamma_t))
    v = np.zeros((9, 3), dtype=complex)
    v[0, 0] = 1.0
    v[3, 1] = 1.0
    v[6, 2] = np.exp(-0.5 * gamma_t)
    v[1, 2] = emitted * np.sqrt(alpha1)
    v[5, 2] = emitted * np.sqrt(1.0 - alpha1)
    return v


def params_mask(gamma13, gamma23, theta, chi, phi, gamma_t) -> np.ndarray | bool:
    """Elementwise over floats or arrays that broadcast: True where ``LambdaParams`` accepts these values.

    The AND of the rules of PARAM_RULES at delta_R = 0: an array where an
    argument is an array, a bool on Python numbers.
    """
    point = SimpleNamespace(
        gamma13=gamma13, gamma23=gamma23, theta=theta, chi=chi, phi=phi, gamma_t=gamma_t, delta_R=0.0
    )
    valid = True
    for _, _, holds in PARAM_RULES:
        valid = valid & holds(point)
    return valid


def channel_map(params: LambdaParams) -> ChannelMap:
    """Assemble the qubit -> photon-field channel for the given parameters.

    Composes W = V U, the pulse then the decay, as a (3 atom, 3 field, 2 input)
    array, and traces the atom out:
    s[m, n][a, b] = sum_k W[k,a,m] * conj(W[k,b,n]).
    """
    w = (_decay(params.alpha1, params.gamma_t) @ _pulse(params.theta, params.chi, params.phi)).reshape(3, 3, 2)
    return ChannelMap(np.einsum("kam,kbn->mnab", w, w.conj()))


# the functions of _eigvalsh3's closed form: sqrt, cos, arccos of a value clipped to [-1, 1],
# and r = det / 2p^3, taken as 0 at a triple eigenvalue (p = 0), which has every angle
_POINT_ROOT_OPS = (math.sqrt, math.cos, lambda r: math.acos(min(max(r, -1.0), 1.0)),
                   lambda det, cube: det / cube if cube > 0.0 else 0.0)
_ARRAY_ROOT_OPS = (np.sqrt, np.cos, lambda r: np.arccos(np.clip(r, -1.0, 1.0)),
                   lambda det, cube: np.divide(det, cube, out=np.zeros(det.shape), where=cube > 0.0))


def _eigvalsh3(a11, a22, a33, a12, a13, a23):
    """Ascending eigenvalues of the Hermitian 3x3 matrices with these diagonal and upper entries.

    The entries are arrays that broadcast to the shape of the matrices, for
    an array of that shape plus (3,), or Python numbers for one matrix, for
    a list of three floats.  By the trigonometric closed form (Smith,
    Commun. ACM 4, 168 (1961)), with m = tr A / 3, p^2 = tr (A - m)^2 / 6 and
    r = det(A - m) / (2 p^3) = cos(3 phi), the eigenvalues are
    m + 2 p cos(phi + 2 pi k / 3).  Near a double eigenvalue, r = +-1, the
    arccos turns the roundoff of r into an error of about
    p eps / sqrt(1 - |r|) in the pair (p sqrt(eps) at r = +-1), and an
    entropy moves by that error times the log of the pair's ratio.  So
    matrices with 1 - |r| below DEGENERATE_TOL whose smallest eigenvalue
    lies below SMALL_EIGENVALUE are left unresolved: there the error could
    make a zero eigenvalue a negative probability, or move an entropy by
    more than 1e-13.  An array call sends them to ``np.linalg.eigvalsh``.

    A one-matrix call first tries an exact split.  Let k be the row with
    the smallest off-diagonal norm.  If that norm is at most
    eps |tr A|, then A differs from the matrix with row and column k's
    off-diagonal entries set to zero by a perturbation of that 2-norm, so
    by Weyl's inequality each eigenvalue of A lies within eps |tr A| of one
    of the split matrix: a_kk, and (p + q)/2 +- hypot((p - q)/2, |h|) of the
    remaining 2x2 block [[p, h], [h*, q]].  That is LAPACK's own
    backward-error scale, and only a matrix that fails the split goes to
    LAPACK.
    """
    trace = a11 + a22 + a33
    m = trace / 3.0
    b11, b22, b33 = a11 - m, a22 - m, a33 - m
    s12, s13, s23 = (a12 * a12.conjugate()).real, (a13 * a13.conjugate()).real, (a23 * a23.conjugate()).real
    p2 = (b11 * b11 + b22 * b22 + b33 * b33) / 6.0 + (s12 + s13 + s23) / 3.0
    det = b11 * b22 * b33 - b11 * s23 - b22 * s13 - b33 * s12 + 2.0 * (a12 * a23 * a13.conjugate()).real
    point = not isinstance(det, np.ndarray)
    sqrt, cos, arccos, ratio = _POINT_ROOT_OPS if point else _ARRAY_ROOT_OPS
    p = sqrt(p2)
    r = ratio(det, 2.0 * p * p2)
    angle = arccos(r) / 3.0
    high = m + 2.0 * p * cos(angle)
    low = m + 2.0 * p * cos(angle + 2.0 * math.pi / 3.0)
    unresolved = (1.0 - abs(r) < DEGENERATE_TOL) & (abs(low) < SMALL_EIGENVALUE)
    if not point:
        values = np.stack([low, trace - low - high, high], axis=-1)
        if unresolved.any():
            entries = (x[unresolved] for x in np.broadcast_arrays(a11, a22, a33, a12, a13, a23))
            values[unresolved] = np.linalg.eigvalsh(
                _hermitian3((np.count_nonzero(unresolved),), *entries), UPLO="U"
            )
        return values
    if not unresolved:
        return [low, trace - low - high, high]
    # the row with the smallest off-diagonal norm: (squared norm, diagonal entry, remaining 2x2 block p, q, h)
    norm2, diagonal, p, q, h = min(
        ((s12 + s13, a11, a22, a33, a23), (s12 + s23, a22, a11, a33, a13), (s13 + s23, a33, a11, a22, a12)),
        key=itemgetter(0),
    )
    if math.sqrt(norm2) <= EPSILON * abs(trace):
        mean, half = 0.5 * (p + q), math.hypot(0.5 * (p - q), abs(h))
        return sorted((diagonal, mean - half, mean + half))
    return np.linalg.eigvalsh(_hermitian3((), a11, a22, a33, a12, a13, a23), UPLO="U").tolist()


def _hermitian3(shape, a11, a22, a33, a12, a13, a23) -> np.ndarray:
    """The matrices ``shape + (3, 3)`` with these diagonal and upper entries, of a12's dtype; the lower triangle stays zero."""
    matrix = np.zeros(shape + (3, 3), dtype=np.result_type(a12))
    matrix[..., 0, 0] = a11
    matrix[..., 1, 1] = a22
    matrix[..., 2, 2] = a33
    matrix[..., 0, 1] = a12
    matrix[..., 0, 2] = a13
    matrix[..., 1, 2] = a23
    return matrix


# the functions of _states' arithmetic, cis(x) = e^{ix} first: on Python floats for
# one point (math only: cmath is an extension module, which adds to every process's
# resident memory), on arrays otherwise
_POINT_OPS = (lambda x: complex(math.cos(x), math.sin(x)), math.sin, math.cos, math.exp, math.expm1, math.sqrt, abs)
_ARRAY_OPS = (lambda x: np.exp(1j * x), np.sin, np.cos, np.exp, np.expm1, np.sqrt, np.abs)


def _states(theta, chi, phi, gamma_t, alpha1, r11, r22, r12) -> tuple[tuple, tuple]:
    """The field and atom states at many points, each as its six diagonal and upper entries.

    Takes the arguments of :func:`coherent_information_batch`, unvalidated;
    the entries are arrays of the points' shape, or Python numbers when no
    argument is an array.  Works from G = U rho U^dag, the atom state right
    after the pulse; see the module docstring.
    """
    point = not any([isinstance(x, np.ndarray) for x in (theta, chi, phi, gamma_t, alpha1, r11, r22, r12)])
    cis, sin, cos, exp, expm1, sqrt, magnitude_of = _POINT_OPS if point else _ARRAY_OPS
    # bright state b = (b1, b2); b2 is real
    b1 = cis(-phi) * sin(chi)
    b2 = cos(chi)
    half = 0.5 * theta
    k = cos(half) - 1.0
    sine = sin(half)
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

    survive = exp(-0.5 * gamma_t)
    emitted = -expm1(-gamma_t)
    to1 = alpha1 * emitted
    to2 = (1.0 - alpha1) * emitted
    e1, e2, kept = to1 * g33, to2 * g33, survive * survive * g33
    magnitude = magnitude_of(sine)
    scale = 1j * sine * survive
    field = (g11 + g22 + kept, e1, e2,
             sqrt(to1) * magnitude * magnitude_of(d1), sqrt(to2) * magnitude * magnitude_of(d2), 0.0)
    atom = (g11 + e1, g22 + e2, kept, g12, scale * d1, scale * d2)
    return field, atom


def _spectra(theta, chi, phi, gamma_t, alpha1, r11, r22, r12):
    """The field and atom spectra, each ascending, from :func:`_eigvalsh3`.

    Takes the arguments of :func:`coherent_information_batch`, unvalidated.
    Over arrays it returns one array of shape (2, ..., 3), ``...`` the shape
    of the points; at one point (no argument an array) a pair of lists of
    three Python floats, computed without numpy unless a state defeats both
    the closed form and the exact split.
    """
    field, atom = _states(theta, chi, phi, gamma_t, alpha1, r11, r22, r12)
    spectra = [_eigvalsh3(*field), _eigvalsh3(*atom)]
    return spectra if isinstance(spectra[0], list) else np.stack(spectra)


def coherent_information_batch(theta, chi, phi, gamma_t, alpha1, r11, r22, r12) -> np.ndarray | float:
    """Coherent information in bits at many parameter points at once.

    ``theta, chi, phi, gamma_t, alpha1`` and the input state's entries
    ``r11``, ``r22`` (real) and ``r12`` (complex, the upper one) are arrays
    that broadcast to the shape of the points, such as (N,), or numbers
    shared by every point.  The inputs are not validated: callers check
    them first (:func:`params_mask`, ``channel.density_mask``).  Returns
    S(field) - S(atom), one per point: an array, or a float when no
    argument is an array.
    """
    spectra = _spectra(theta, chi, phi, gamma_t, alpha1, r11, r22, r12)
    if isinstance(spectra, list):  # one point, in Python floats
        field, atom = _float_entropy(spectra[0]), _float_entropy(spectra[1])
        if field is not None and atom is not None:
            return field - atom
        spectra = np.array(spectra)  # entropy_bits words the error
    entropy = entropy_bits(spectra)
    return entropy[0] - entropy[1]


def coherent_information_at(params: LambdaParams, rho: DensityMatrix) -> float:
    """Coherent information in bits of the channel at ``params`` for input ``rho``.

    The one-point call of :func:`coherent_information_batch`.
    """
    (r11, r12), (_, r22) = rho.matrix.tolist()
    return float(coherent_information_batch(
        params.theta, params.chi, params.phi, params.gamma_t, params.alpha1, r11.real, r22.real, r12
    ))
