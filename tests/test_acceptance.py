"""End-to-end acceptance checks.

One test per headline claim, each at its stated tolerance; `pytest -v`
prints one pass/fail line per claim.  Oracles here are assembled
independently of the library plumbing wherever the claim warrants it.
"""

import math
import time

import numpy as np
import pytest

from lambda_capacity.channel import (
    DensityMatrix,
    JointProbabilityTable,
    apply_channel,
    coherent_information,
    entropy_exchange,
    identity_channel,
    joint_output,
    maximally_mixed,
    shannon_mutual_information,
    validate_channel,
)
from lambda_capacity.lambda_system import LambdaParams, channel_map, closed_form_channel
from lambda_capacity.sweep import figure_preset, grid_sweep

CAPACITY_OPTIMUM = 0.6887


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / rho.trace())


def entropy_of(matrix):
    """Entropy in bits straight from numpy, bypassing the package helpers."""
    lam = np.linalg.eigvalsh(matrix)
    lam = lam[lam > 1e-14]
    return float(-(lam * np.log2(lam)).sum())


def test_optimum_capacity_of_symmetric_emitter():
    # library value
    ic = coherent_information(channel_map(LambdaParams()), maximally_mixed(2))
    assert ic == pytest.approx(CAPACITY_OPTIMUM, abs=5e-4)

    # brute-force oracle: assemble the joint output-mirror state directly
    # from the explicit operator table and eigendecompose the 6x6 by hand
    s = closed_form_channel(math.pi, math.inf, 0.5, 0.5).s
    basis = np.eye(2)
    rho_alpha = sum(
        0.5 * np.kron(s[i, j], np.outer(basis[i], basis[j]))
        for i in range(2)
        for j in range(2)
    )
    rho_out = 0.5 * (s[0, 0] + s[1, 1])
    assert entropy_of(rho_out) == pytest.approx(1.5, abs=1e-10)
    spectrum = np.sort(np.linalg.eigvalsh(rho_alpha))[::-1]
    assert np.max(np.abs(spectrum - [0.75, 0.25, 0, 0, 0, 0])) < 1e-10
    assert ic == pytest.approx(entropy_of(rho_out) - entropy_of(rho_alpha), abs=1e-10)


def test_two_level_limit_transfers_one_qubit():
    # closing the 3->1 decay path at single-tone drive leaves a channel
    # that relays the qubit into the field intact
    params = LambdaParams(gamma13=0.0, gamma23=1.0, theta=math.pi, chi=math.pi / 2, gamma_t=math.inf)
    ic = coherent_information(channel_map(params), maximally_mixed(2))
    assert ic == pytest.approx(1.0, abs=1e-6)


def test_no_pulse_gives_vacuum_and_minus_input_entropy():
    rng = np.random.default_rng(99)
    channel = channel_map(LambdaParams(theta=0.0))
    vacuum = np.diag([1.0, 0.0, 0.0])
    for _ in range(20):
        rho = random_density(2, rng)
        out = apply_channel(channel, rho)
        assert np.max(np.abs(out.matrix - vacuum)) < 1e-10
        assert coherent_information(channel, rho) == pytest.approx(-rho.entropy(), abs=1e-10)


def test_information_independent_of_pulse_split_and_phase():
    rho = maximally_mixed(2)
    values = [
        coherent_information(channel_map(LambdaParams(chi=chi, phi=phi)), rho)
        for chi in np.linspace(0.0, math.pi / 2, 9)
        for phi in np.linspace(0.0, 2.0 * math.pi, 9)
    ]
    assert max(values) - min(values) < 1e-9


def test_constructive_and_closed_form_routes_agree():
    inputs = [maximally_mixed(2), DensityMatrix(np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]]))]
    gts = [0.0, 0.4, 1.0, 2.0, 4.0, 8.0, math.inf]
    for theta in np.linspace(0.0, 2.0 * math.pi, 7):
        for gt in gts:
            built = channel_map(LambdaParams(theta=theta, gamma_t=gt))
            table = closed_form_channel(theta, gt, 0.5, 0.5)
            for rho in inputs:
                d_out = apply_channel(built, rho).spectrum() - apply_channel(table, rho).spectrum()
                d_joint = joint_output(built, rho).spectrum() - joint_output(table, rho).spectrum()
                assert np.max(np.abs(d_out)) < 1e-10
                assert np.max(np.abs(d_joint)) < 1e-10


def test_channels_are_physical_for_random_parameters():
    rng = np.random.default_rng(123)
    for k in range(50):
        params = LambdaParams(
            gamma13=rng.uniform(0.01, 2.0),
            gamma23=rng.uniform(0.01, 2.0),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            chi=rng.uniform(0.0, math.pi / 2),
            phi=rng.uniform(0.0, 2.0 * math.pi),
            gamma_t=math.inf if k % 10 == 0 else rng.uniform(0.0, 12.0),
        )
        channel = channel_map(params)
        report = validate_channel(channel)
        assert report.passes, (params, report)
        assert report.trace_deviation < 1e-10
        assert report.min_choi_eigenvalue >= -1e-8
        rho = random_density(2, rng)
        assert abs(apply_channel(channel, rho).matrix.trace() - 1.0) < 1e-10
        assert entropy_exchange(channel, rho) >= 0.0


def test_noiseless_channel_axioms():
    rng = np.random.default_rng(7)
    noiseless = identity_channel(2)
    for _ in range(20):
        rho = random_density(2, rng)
        assert entropy_exchange(noiseless, rho) < 1e-10
        assert coherent_information(noiseless, rho) == pytest.approx(rho.entropy(), abs=1e-10)
    # pure inputs: the joint state entropy collapses onto the output entropy
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        pure = DensityMatrix(np.outer(v, v.conj()))
        channel = channel_map(
            LambdaParams(theta=rng.uniform(0.0, 2.0 * math.pi), gamma_t=rng.uniform(0.0, 8.0))
        )
        s_out = apply_channel(channel, pure).entropy()
        assert entropy_exchange(channel, pure) == pytest.approx(s_out, abs=1e-10)


def test_figure_grids_reproduce_known_structure():
    start = time.perf_counter()
    fig2b = grid_sweep(figure_preset("fig2b"))
    elapsed_2b = time.perf_counter() - start
    assert fig2b.max_value == pytest.approx(1.0, abs=1e-9)
    assert fig2b.argmax["asym"] == 0.0
    assert fig2b.argmax["chi"] == pytest.approx(math.pi / 2, abs=1e-12)
    symmetric_row = fig2b.values[-1]
    assert np.all(np.abs(symmetric_row - CAPACITY_OPTIMUM) < 5e-4)
    assert symmetric_row.max() - symmetric_row.min() < 1e-9

    start = time.perf_counter()
    fig1b = grid_sweep(figure_preset("fig1b"))
    elapsed_1b = time.perf_counter() - start
    assert fig1b.argmax["theta"] == pytest.approx(math.pi, abs=1e-12)
    assert fig1b.argmax["gamma_t"] == 8.0

    assert elapsed_2b < 5.0
    assert elapsed_1b < 5.0


def test_classical_binary_baseline():
    crossover, keep = 0.11, 0.89
    table = JointProbabilityTable(0.5 * np.array([[keep, crossover], [crossover, keep]]))
    mi = shannon_mutual_information(table)
    oracle = 1.0 + crossover * math.log2(crossover) + keep * math.log2(keep)
    assert mi == pytest.approx(oracle, abs=1e-12)
    assert mi == pytest.approx(0.5001, abs=1e-4)
