import math

import numpy as np
import pytest
from scipy.linalg import expm

from lambda_capacity.channel import (
    apply_channel,
    coherent_information,
    maximally_mixed,
    qubit_state,
    validate_channel,
)
from lambda_capacity.lambda_system import (
    InvalidAlphas,
    InvalidAngle,
    LambdaParams,
    channel_map,
    closed_form_channel,
    coherent_information_at,
    decay_isometry,
    pulse_propagator,
)
from lambda_capacity.linalg import hermitian_eigensystem

GT_GRID = [0.0, 0.3, 1.0, 2.5, 8.0, math.inf]


def analytic_pulse(theta, chi, phi):
    """Trig closed form of the pulse propagator, for cross-checking the
    matrix-exponential route."""
    s, c = math.sin(chi), math.cos(chi)
    half = theta / 2.0
    ph = np.exp(1j * phi)
    return np.array(
        [
            [s * s * math.cos(half) + c * c, s * c * (math.cos(half) - 1.0) / ph],
            [s * c * (math.cos(half) - 1.0) * ph, c * c * math.cos(half) + s * s],
            [-1j * s * math.sin(half) * ph, -1j * c * math.sin(half)],
        ]
    )


def pulse_by_expm(theta, chi, phi):
    """Ground columns of exp(-i H tau_p), straight from the Hamiltonian."""
    h = np.zeros((3, 3), dtype=complex)
    h[2, 0] = 0.5 * theta * math.sin(chi) * np.exp(1j * phi)
    h[2, 1] = 0.5 * theta * math.cos(chi)
    h = h + h.conj().T
    return expm(-1j * h)[:, :2]


# -------------------------------------------------------------------- pulse


def test_pulse_theta_zero_is_identity_embedding():
    u = pulse_propagator(0.0, 0.3, 1.1)
    assert np.allclose(u, np.array([[1, 0], [0, 1], [0, 0]]), atol=1e-14)


def test_pulse_full_transfer_on_single_tone():
    u = pulse_propagator(math.pi, math.pi / 2, 0.0)
    assert np.allclose(u[:, 0], [0, 0, -1j], atol=1e-12)
    assert np.allclose(u[:, 1], [0, 1, 0], atol=1e-12)


def test_pulse_balanced_tones_keep_dark_state():
    u = pulse_propagator(math.pi, math.pi / 4, 0.0)
    assert np.allclose(u[:, 0], [0.5, -0.5, -1j / np.sqrt(2)], atol=1e-12)


def test_pulse_matches_trig_form_on_grid():
    for theta in np.linspace(0.0, 2.0 * math.pi, 7):
        for chi in np.linspace(0.0, math.pi / 2, 5):
            for phi in (0.0, 0.7, 2.0, 5.5):
                u = pulse_propagator(theta, chi, phi)
                assert np.max(np.abs(u - analytic_pulse(theta, chi, phi))) < 1e-12
                assert np.max(np.abs(u - pulse_by_expm(theta, chi, phi))) < 1e-12


def test_pulse_rejects_bad_angles():
    with pytest.raises(InvalidAngle):
        pulse_propagator(math.pi, 2.0, 0.0)
    with pytest.raises(InvalidAngle):
        pulse_propagator(math.nan, 0.5, 0.0)


# -------------------------------------------------------------------- decay


def test_decay_nothing_emitted_at_time_zero():
    v = decay_isometry(0.5, 0.5, 0.0)
    assert v[1, 2] == 0.0 and v[5, 2] == 0.0
    assert v[6, 2] == 1.0


def test_decay_complete_emission_at_long_times():
    v = decay_isometry(0.5, 0.5, math.inf)
    assert v[6, 2] == 0.0
    assert v[1, 2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert v[5, 2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_decay_columns_stay_orthonormal():
    for a1 in (0.0, 0.25, 0.7, 1.0):
        for gt in GT_GRID:
            v = decay_isometry(a1, 1.0 - a1, gt)
            assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-12


def test_decay_excited_population_follows_exponential():
    psi = np.array([0.3, 0.4j, math.sqrt(1 - 0.25)])
    for gt in (0.0, 0.7, 2.0, math.inf):
        m = (decay_isometry(0.3, 0.7, gt) @ psi).reshape(3, 3)
        atom = m @ m.conj().T
        assert abs(atom[2, 2].real - 0.75 * math.exp(-gt)) < 1e-12


def test_decay_rejects_bad_parameters():
    with pytest.raises(InvalidAlphas):
        decay_isometry(-0.1, 1.1, 1.0)
    with pytest.raises(InvalidAlphas):
        decay_isometry(0.5, 0.4, 1.0)
    with pytest.raises(InvalidAlphas):
        decay_isometry(0.5, 0.5, -1.0)


# --------------------------------------------------------------- parameters


def test_params_branching_ratios():
    p = LambdaParams(gamma13=1.0, gamma23=3.0)
    assert p.alpha1 == pytest.approx(0.25)
    assert p.alpha1 + p.alpha2 == 1.0


def test_params_validation():
    with pytest.raises(InvalidAlphas):
        LambdaParams(gamma13=-1.0)
    with pytest.raises(InvalidAlphas):
        LambdaParams(gamma13=0.0, gamma23=0.0)
    with pytest.raises(InvalidAlphas):
        LambdaParams(gamma_t=-0.5)
    with pytest.raises(InvalidAngle):
        LambdaParams(chi=3.0)
    with pytest.raises(ValueError):
        LambdaParams(delta_R=0.2)


# ------------------------------------------------------------- channel maps


def test_channel_no_pulse_means_vacuum_only():
    s = channel_map(LambdaParams(theta=0.0)).s
    vacuum = np.diag([1.0, 0.0, 0.0])
    assert np.allclose(s[0, 0], vacuum, atol=1e-14)
    assert np.allclose(s[1, 1], vacuum, atol=1e-14)
    assert np.allclose(s[0, 1], 0.0, atol=1e-14)
    assert np.allclose(s[1, 0], 0.0, atol=1e-14)


def test_channel_operator_spectrum_at_full_pulse():
    s = channel_map(LambdaParams()).s
    spec = hermitian_eigensystem(s[0, 0]).eigenvalues
    assert np.allclose(spec, [0.5, 0.5, 0.0], atol=1e-12)


def test_composed_isometry_is_isometric():
    for theta in np.linspace(0.0, 2.0 * math.pi, 5):
        for chi in np.linspace(0.0, math.pi / 2, 4):
            for gt in GT_GRID:
                u = pulse_propagator(theta, chi, 0.4)
                v = decay_isometry(0.3, 0.7, gt)
                w = v @ u
                assert np.max(np.abs(w.conj().T @ w - np.eye(2))) < 1e-12


def test_channel_map_is_physical_on_grid():
    for theta in np.linspace(0.0, 2.0 * math.pi, 5):
        for gt in [0.0, 0.5, 2.0, 5.0, math.inf]:
            report = validate_channel(channel_map(LambdaParams(theta=theta, gamma_t=gt)))
            assert report.passes, (theta, gt, report)


def test_closed_form_matches_construction_up_to_basis_signs():
    # the two routes differ by flipping the sign of both photon states,
    # a diagonal unitary that no spectrum can see
    d = np.diag([1.0, -1.0, -1.0])
    for theta in np.linspace(0.0, 2.0 * math.pi, 7):
        for gt in GT_GRID:
            cm = channel_map(LambdaParams(theta=theta, gamma_t=gt)).s
            cf = closed_form_channel(theta, gt, 0.5, 0.5).s
            for m in range(2):
                for n in range(2):
                    assert np.max(np.abs(cm[m, n] - d @ cf[m, n] @ d)) < 1e-12


def test_closed_form_frozen_point():
    s = closed_form_channel(math.pi, math.inf, 0.5, 0.5).s
    assert np.allclose(s[0, 0], np.diag([0.0, 0.5, 0.5]), atol=1e-15)
    assert np.allclose(s[1, 1], np.diag([1.0, 0.0, 0.0]), atol=1e-15)
    assert abs(s[0, 1][2, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_closed_form_no_pulse_is_vacuum_channel():
    s = closed_form_channel(0.0, 2.0, 0.5, 0.5).s
    assert np.allclose(s[0, 0], np.diag([1.0, 0.0, 0.0]), atol=1e-15)
    assert np.allclose(s[1, 1], np.diag([1.0, 0.0, 0.0]), atol=1e-15)


def test_closed_form_trace_identities():
    rng = np.random.default_rng(2)
    for _ in range(10):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        gt = rng.uniform(0.0, 6.0)
        a1 = rng.uniform(0.0, 1.0)
        s = closed_form_channel(theta, gt, a1, 1.0 - a1).s
        assert abs(np.trace(s[0, 0]) - 1.0) < 1e-12
        assert abs(np.trace(s[1, 1]) - 1.0) < 1e-12
        assert abs(np.trace(s[0, 1])) < 1e-12


def test_single_decay_path_silences_second_photon_mode():
    # with no 3->2 decay the second photon mode can never be populated
    s = channel_map(LambdaParams(gamma13=1.0, gamma23=0.0)).s
    assert np.max(np.abs(s[:, :, 2, :])) < 1e-14
    assert np.max(np.abs(s[:, :, :, 2])) < 1e-14


def test_mixed_input_information_ignores_pulse_split_and_phase():
    rho = maximally_mixed(2)
    reference = coherent_information(channel_map(LambdaParams()), rho)
    for chi in np.linspace(0.0, math.pi / 2, 4):
        for phi in (0.0, 1.3, 4.0):
            ic = coherent_information(channel_map(LambdaParams(chi=chi, phi=phi)), rho)
            assert abs(ic - reference) < 1e-9


def test_output_state_flagship_point():
    out = apply_channel(channel_map(LambdaParams()), maximally_mixed(2))
    assert np.allclose(out.matrix, np.diag([0.5, 0.25, 0.25]), atol=1e-12)


# ---------------------------------------------------------------- evaluator


def oracle_points():
    """(theta, chi, phi, gamma_t, asym, rho): seeded random points, then the
    edge values theta = 0, gamma_t in {0, inf}, asym = 0, rho11 in {0, 1}
    and a pure input on the boundary |rho12|^2 = rho11 (1 - rho11)."""
    rng = np.random.default_rng(31)
    points = []
    for _ in range(60):
        rho11 = rng.uniform(0.0, 1.0)
        coherence = rng.uniform(0.0, 1.0) * math.sqrt(rho11 * (1.0 - rho11))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        rho = qubit_state(rho11, coherence * math.cos(angle), coherence * math.sin(angle))
        gt = math.inf if rng.random() < 0.2 else rng.uniform(0.0, 8.0)
        points.append((
            rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, math.pi / 2),
            rng.uniform(-math.pi, math.pi), gt, rng.uniform(0.0, 2.0), rho,
        ))
    edge = math.sqrt(0.3 * 0.7)
    states = (
        qubit_state(0.0), qubit_state(1.0), maximally_mixed(2),
        qubit_state(0.3, edge * math.cos(1.1), edge * math.sin(1.1)),
    )
    for theta in (0.0, 1.3, math.pi):
        for gt in (0.0, 2.0, math.inf):
            for asym in (0.0, 1.0, 1.7):
                points.extend((theta, 0.7, 0.4, gt, asym, rho) for rho in states)
    return points


def test_evaluator_matches_purification_and_closed_form_routes():
    for theta, chi, phi, gt, asym, rho in oracle_points():
        params = LambdaParams(gamma13=asym, gamma23=1.0, theta=theta, chi=chi, phi=phi, gamma_t=gt)
        ic = coherent_information_at(params, rho)
        assert abs(ic - coherent_information(channel_map(params), rho)) < 1e-12
        # closed_form_channel is written out for chi = pi/2, phi = 0
        drive = LambdaParams(gamma13=asym, gamma23=1.0, theta=theta, gamma_t=gt)
        closed = closed_form_channel(theta, gt, drive.alpha1, drive.alpha2)
        ic_drive = coherent_information_at(drive, rho)
        assert abs(ic_drive - coherent_information(closed, rho)) < 1e-12
        assert abs(ic_drive - coherent_information(channel_map(drive), rho)) < 1e-12
