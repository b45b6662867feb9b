"""Property tests of the coherent-information evaluator, and its invariances.

The strategies reach the edge values theta = 0, gamma_t in {0, inf},
asym = 0, rho11 in {0, 1} and pure inputs on the boundary
|rho12|^2 = rho11 (1 - rho11), besides random interior points.
"""

import cmath
import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from lambda_capacity.channel import qubit_state
from lambda_capacity.lambda_system import (
    LambdaParams,
    channel_map,
    coherent_information_at,
    coherent_information_batch,
)
from oracle import coherent_information, entropy

HALF_PI = math.pi / 2
TWO_PI = 2.0 * math.pi


def _entries(rho):
    """The entries r11, r22 (Python floats) and r12 (a Python complex) of a DensityMatrix."""
    (r11, r12), (_, r22) = rho.matrix.tolist()
    return r11.real, r22.real, r12


def _with_edges(edges, low, high):
    return st.one_of(st.sampled_from(edges), st.floats(low, high))


@st.composite
def points(draw):
    """One (params, rho): a LambdaParams with gamma13 = asym, gamma23 = 1, and an input state."""
    params = LambdaParams(
        gamma13=draw(_with_edges([0.0, 1.0], 0.0, 5.0)),
        gamma23=1.0,
        theta=draw(_with_edges([0.0, math.pi, TWO_PI], 0.0, TWO_PI)),
        chi=draw(_with_edges([0.0, HALF_PI], 0.0, HALF_PI)),
        phi=draw(_with_edges([0.0], -math.pi, math.pi)),
        gamma_t=draw(_with_edges([0.0, math.inf], 0.0, 30.0)),
    )
    rho11 = draw(_with_edges([0.0, 0.5, 1.0], 0.0, 1.0))
    # fraction 1 puts the coherence on the boundary: a pure input
    radius = draw(_with_edges([0.0, 1.0], 0.0, 1.0)) * math.sqrt(rho11 * (1.0 - rho11))
    angle = draw(st.floats(0.0, TWO_PI))
    return params, qubit_state(rho11, radius * math.cos(angle), radius * math.sin(angle))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points())
# an input eigenvalue of 7.5e-13 adds 3e-11 bits to S(rho): a purification
# that drops it as roundoff misses them
@example((LambdaParams(theta=0.0, gamma_t=0.0), qubit_state(1e-12, 5e-7)))
def test_evaluator_matches_purification_route_and_bounds(point):
    params, rho = point
    ic = coherent_information_at(params, rho)
    assert abs(ic - coherent_information(channel_map(params), rho)) <= 1e-12
    # -S(rho) <= I_c <= S(rho) <= 1 (Schumacher and Nielsen, PRA 54, 2629 (1996))
    s_in = entropy(rho)
    assert -s_in - 1e-12 <= ic <= s_in + 1e-12
    assert s_in <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(points(), min_size=1, max_size=25))
def test_batched_call_equals_one_point_calls(batch):
    # one point of Python numbers: the spectra's one-point path
    arguments = [(p.theta, p.chi, p.phi, p.gamma_t, p.alpha1, *_entries(rho)) for p, rho in batch]
    assert all(type(x) in (float, complex) for point in arguments for x in point)
    single = [coherent_information_batch(*point) for point in arguments]
    # arrays: the closed-form spectra, at every batch size
    values = coherent_information_batch(*(np.array(column) for column in zip(*arguments)))
    assert values.shape == (len(batch),)
    for value, expected in zip(values, single):
        assert abs(value - expected) <= 1e-13


def test_mixed_input_invariances_at_theta_2():
    # maximally mixed input, theta = 2, complete decay
    rho = _entries(qubit_state(0.5))
    chi = np.linspace(0.0, HALF_PI, 41)[:, None]
    phi = np.linspace(-math.pi, math.pi, 25)[None, :]
    surfaces = {}
    for asym in (0.0, 0.5, 1.0, 2.0):
        values = coherent_information_batch(2.0, chi, phi, math.inf, asym / (asym + 1.0), *rho)
        assert values.shape == (41, 25)
        # no dependence on phi, whatever the decay asymmetry
        assert np.ptp(values, axis=1).max() <= 1e-12
        surfaces[asym] = values[:, 0]
    # chi drops out only for the symmetric emitter
    assert np.ptp(surfaces[1.0]) <= 1e-12
    for asym in (0.5, 2.0):
        assert round(surfaces[asym].min(), 6) == 0.176331
        assert round(surfaces[asym].max(), 6) == 0.347004
    # asym and 1/asym swap the roles of the two tones: chi -> pi/2 - chi
    assert np.abs(surfaces[0.5] - surfaces[2.0][::-1]).max() <= 1e-12
    # at the ends of the range the purification route agrees
    for chi_end, want in ((0.0, 0.176331), (HALF_PI, 0.347004)):
        params = LambdaParams(gamma13=0.5, gamma23=1.0, theta=2.0, chi=chi_end, gamma_t=math.inf)
        assert round(coherent_information(channel_map(params), qubit_state(0.5)), 6) == want


def _objects(point):
    """(params, rho) of a point given as a dict of the LambdaParams fields and rho11, rho12."""
    fields = {k: v for k, v in point.items() if k not in ("rho11", "rho12")}
    rho12 = point["rho12"]
    return LambdaParams(**fields), qubit_state(point["rho11"], rho12.real, rho12.imag)


def _as_dict(params, rho):
    fields = ("gamma13", "gamma23", "theta", "chi", "phi", "gamma_t")
    return {**{k: getattr(params, k) for k in fields}, "rho11": rho.matrix[0, 0].real, "rho12": rho.matrix[0, 1]}


def _batch(points):
    """coherent_information_batch over these points."""
    objects = [_objects(p) for p in points]
    columns = zip(*((p.theta, p.chi, p.phi, p.gamma_t, p.alpha1, *_entries(rho)) for p, rho in objects))
    return coherent_information_batch(*(np.array(column) for column in columns))


def _symmetries(a):
    """The exact symmetries of I_c, as maps of a point's dict (see _objects)."""
    return {
        # a phase e^{-ia} on |1>: b -> D b and rho -> D rho D^dag with D = diag(e^{-ia}, 1)
        "phase": lambda p: {**p, "phi": p["phi"] + a, "rho12": p["rho12"] * cmath.exp(-1j * a)},
        # |1> <-> |2>: the bright state becomes e^{-i phi} times that of (pi/2 - chi, -phi)
        "swap": lambda p: {
            **p, "chi": HALF_PI - p["chi"], "phi": -p["phi"], "gamma13": p["gamma23"], "gamma23": p["gamma13"],
            "rho11": 1.0 - p["rho11"], "rho12": p["rho12"].conjugate(),
        },
        # complex conjugation of the pulse and the input state: an antiunitary map, which leaves spectra as they are
        "conjugate": lambda p: {**p, "phi": -p["phi"], "rho12": p["rho12"].conjugate()},
        # sin(theta/2) changes sign, which a phase on |3> undoes; cos(theta/2) does not
        "-theta": lambda p: {**p, "theta": -p["theta"]},
        "theta + 4 pi": lambda p: {**p, "theta": p["theta"] + 2.0 * TWO_PI},
    }


@st.composite
def phased_points(draw):
    """A point of ``points`` with phi away from 0 and pi and a complex rho12.

    ``points`` draws phi = 0 and a real rho12 so often that a wrong map of
    phi and rho12 could pass unseen.
    """
    params, _ = draw(points())
    phi = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, math.pi - 0.2))
    rho11 = draw(st.floats(0.05, 0.95))
    radius = draw(st.floats(0.2, 1.0)) * math.sqrt(rho11 * (1.0 - rho11))
    angle = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, math.pi - 0.2))
    return dataclasses.replace(params, phi=phi), qubit_state(rho11, radius * math.cos(angle), radius * math.sin(angle))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(phased_points(), min_size=1, max_size=25), st.floats(0.1, 3.0))
def test_exact_symmetries(batch, a):
    # a phase a away from 0 and 2 pi, where the phase map moves nothing
    originals = [_as_dict(params, rho) for params, rho in batch]
    before = _batch(originals)
    for name, symmetry in _symmetries(a).items():
        moved = [symmetry(p) for p in originals]
        for p, q in zip(originals, moved):
            one, other = (coherent_information_at(*_objects(x)) for x in (p, q))
            assert abs(one - other) <= 1e-12, name
        assert np.abs(_batch(moved) - before).max() <= 1e-12, name
