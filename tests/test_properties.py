"""Property tests of the coherent-information evaluator, and its invariances.

The strategies reach the edge values theta = 0, gamma_t in {0, inf},
asym = 0, rho11 in {0, 1} and pure inputs on the boundary
|rho12|^2 = rho11 (1 - rho11), besides random interior points.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from lambda_capacity.channel import maximally_mixed, qubit_state
from lambda_capacity.lambda_system import (
    CLOSED_FORM_MIN,
    LambdaParams,
    channel_map,
    coherent_information_at,
    coherent_information_batch,
)
from oracle import coherent_information, entropy

HALF_PI = math.pi / 2
TWO_PI = 2.0 * math.pi


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
    single = [coherent_information_at(params, rho) for params, rho in batch]
    # as drawn, a batch is smaller than CLOSED_FORM_MIN and takes LAPACK; repeated
    # to CLOSED_FORM_MIN points or more, it takes the closed-form spectra
    for copies in (1, -(-CLOSED_FORM_MIN // len(batch))):
        repeated = batch * copies
        columns = zip(*((p.theta, p.chi, p.phi, p.gamma_t, p.alpha1) for p, _ in repeated))
        rho = np.array([rho.matrix for _, rho in repeated])
        values = coherent_information_batch(*(np.array(column) for column in columns), rho)
        assert values.shape == (len(repeated),)
        for value, expected in zip(values, single * copies):
            assert abs(value - expected) <= 1e-13


def test_mixed_input_invariances_at_theta_2():
    # maximally mixed input, theta = 2, complete decay
    rho = maximally_mixed(2).matrix
    chi = np.linspace(0.0, HALF_PI, 41)[:, None]
    phi = np.linspace(-math.pi, math.pi, 25)[None, :]
    surfaces = {}
    for asym in (0.0, 0.5, 1.0, 2.0):
        values = coherent_information_batch(2.0, chi, phi, math.inf, asym / (asym + 1.0), rho)
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
        assert round(coherent_information(channel_map(params), maximally_mixed(2)), 6) == want
