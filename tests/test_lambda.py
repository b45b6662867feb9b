import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from lambda_capacity import cli, lambda_system
from lambda_capacity.channel import qubit_state, validate_channel
from lambda_capacity.lambda_system import (
    InvalidAlphas,
    InvalidAngle,
    LambdaParams,
    channel_map,
    coherent_information_at,
    coherent_information_batch,
    params_mask,
    _decay,
    _eigvalsh3,
    _lapack_eigvalsh3,
    _pulse,
    _states,
)
from lambda_capacity.linalg import NegativeProbability, NotNormalized, entropy_bits
from lambda_capacity.sweep import FIGURES, figure_preset, grid_sweep
from oracle import (
    apply_channel,
    closed_form_channel,
    coherent_information,
    hermitian_eigensystem,
    load_benchmark_reference,
    oracle_points,
)

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
    u = _pulse(0.0, 0.3, 1.1)
    assert np.allclose(u, np.array([[1, 0], [0, 1], [0, 0]]), atol=1e-14)


def test_pulse_full_transfer_on_single_tone():
    u = _pulse(math.pi, math.pi / 2, 0.0)
    assert np.allclose(u[:, 0], [0, 0, -1j], atol=1e-12)
    assert np.allclose(u[:, 1], [0, 1, 0], atol=1e-12)


def test_pulse_balanced_tones_keep_dark_state():
    u = _pulse(math.pi, math.pi / 4, 0.0)
    assert np.allclose(u[:, 0], [0.5, -0.5, -1j / np.sqrt(2)], atol=1e-12)


def test_pulse_matches_trig_form_on_grid():
    for theta in np.linspace(0.0, 2.0 * math.pi, 7):
        for chi in np.linspace(0.0, math.pi / 2, 5):
            for phi in (0.0, 0.7, 2.0, 5.5):
                u = _pulse(theta, chi, phi)
                assert np.max(np.abs(u - analytic_pulse(theta, chi, phi))) < 1e-12
                assert np.max(np.abs(u - pulse_by_expm(theta, chi, phi))) < 1e-12


def test_pulse_rejects_bad_angles():
    # the angle rules, on one point and elementwise over arrays
    with pytest.raises(InvalidAngle):
        LambdaParams(chi=2.0)
    with pytest.raises(InvalidAngle):
        LambdaParams(theta=math.nan)
    bad = np.array([2.0, -1e-300, math.nan, math.inf])
    assert params_mask(1.0, 1.0, math.pi, bad, 0.0, math.inf).tolist() == [False] * 4
    assert params_mask(1.0, 1.0, bad[2:], 0.5, bad[2:][::-1], math.inf).tolist() == [False] * 2
    assert params_mask(1.0, 1.0, np.array([0.0, 9.0]), np.array([0.0, math.pi / 2]), -9.0, math.inf).all()


# -------------------------------------------------------------------- decay


def test_decay_nothing_emitted_at_time_zero():
    v = _decay(0.5, 0.0)
    assert v[1, 2] == 0.0 and v[5, 2] == 0.0
    assert v[6, 2] == 1.0


def test_decay_complete_emission_at_long_times():
    v = _decay(0.5, math.inf)
    assert v[6, 2] == 0.0
    assert v[1, 2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert v[5, 2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_decay_columns_stay_orthonormal():
    for a1 in (0.0, 0.25, 0.7, 1.0):
        for gt in GT_GRID:
            v = _decay(a1, gt)
            assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-12


def test_decay_excited_population_follows_exponential():
    psi = np.array([0.3, 0.4j, math.sqrt(1 - 0.25)])
    for gt in (0.0, 0.7, 2.0, math.inf):
        m = (_decay(0.3, gt) @ psi).reshape(3, 3)
        atom = m @ m.conj().T
        assert abs(atom[2, 2].real - 0.75 * math.exp(-gt)) < 1e-12


def test_decay_rejects_bad_parameters():
    # the decay rules, on one point and elementwise over arrays
    with pytest.raises(InvalidAlphas):
        LambdaParams(gamma13=-0.1, gamma23=1.1)
    with pytest.raises(InvalidAlphas):
        LambdaParams(gamma_t=-1.0)
    rates = np.array([-0.1, 0.0, math.inf, math.nan])
    assert params_mask(rates, np.array([1.1, 0.0, 1.0, 1.0]), 1.0, 0.5, 0.0, 1.0).tolist() == [False] * 4
    gamma_t = np.array([-1.0, math.nan, 0.0, math.inf])
    assert params_mask(1.0, 1.0, 1.0, 0.5, 0.0, gamma_t).tolist() == [False, False, True, True]
    # two infinite rates of opposite sign sum to NaN: rejected, with no warning
    assert not params_mask(math.inf, -math.inf, 1.0, 0.5, 0.0, 1.0)


# --------------------------------------------------------------- parameters


def test_params_branching_ratios():
    p = LambdaParams(gamma13=1.0, gamma23=3.0)
    assert p.alpha1 == pytest.approx(0.25)


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
                u = _pulse(theta, chi, 0.4)
                v = _decay(0.3, gt)
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
    rho = qubit_state(0.5)
    reference = coherent_information(channel_map(LambdaParams()), rho)
    for chi in np.linspace(0.0, math.pi / 2, 4):
        for phi in (0.0, 1.3, 4.0):
            ic = coherent_information(channel_map(LambdaParams(chi=chi, phi=phi)), rho)
            assert abs(ic - reference) < 1e-9


def test_output_state_flagship_point():
    out = apply_channel(channel_map(LambdaParams()), qubit_state(0.5))
    assert np.allclose(out.matrix, np.diag([0.5, 0.25, 0.25]), atol=1e-12)


# ---------------------------------------------------------------- evaluator


def test_evaluator_matches_purification_and_closed_form_routes():
    points = oracle_points()
    states = [qubit_state(*p[5:]) for p in points]
    theta, chi, phi, gt, asym = (np.array(column) for column in zip(*(p[:5] for p in points)))
    rho = np.array([rho.matrix for rho in states])
    batch = coherent_information_batch(
        theta, chi, phi, gt, asym / (asym + 1.0), rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1]
    )
    assert batch.shape == (len(points),)
    for (theta, chi, phi, gt, asym, *_), rho, ic_batch in zip(points, states, batch):
        params = LambdaParams(gamma13=asym, gamma23=1.0, theta=theta, chi=chi, phi=phi, gamma_t=gt)
        reference = coherent_information(channel_map(params), rho)
        assert abs(coherent_information_at(params, rho) - reference) < 1e-12
        assert abs(ic_batch - reference) < 1e-12
        # closed_form_channel is written out for chi = pi/2, phi = 0
        drive = LambdaParams(gamma13=asym, gamma23=1.0, theta=theta, gamma_t=gt)
        closed = closed_form_channel(theta, gt, drive.alpha1, 1.0 - drive.alpha1)
        ic_drive = coherent_information_at(drive, rho)
        assert abs(ic_drive - coherent_information(closed, rho)) < 1e-12
        assert abs(ic_drive - coherent_information(channel_map(drive), rho)) < 1e-12


@pytest.mark.parametrize(
    "fields, state",
    [
        ({"gamma_t": 0.0}, (0.3, 0.2, -0.1)),
        ({"gamma_t": math.inf}, (0.3, 0.2, -0.1)),
        ({"theta": 0.0}, (0.3, 0.2, -0.1)),
        ({"theta": 2.0 * math.pi}, (0.3, 0.2, -0.1)),
        ({"gamma13": 0.0}, (0.3, 0.2, -0.1)),  # alpha1 = 0
        ({"gamma23": 0.0}, (0.3, 0.2, -0.1)),  # alpha1 = 1
        ({}, (1.0, 0.0, 0.0)),  # a pure input
    ],
)
def test_one_point_route_matches_purification_at_edges(monkeypatch, fields, state):
    params = LambdaParams(**{"gamma13": 0.6, "theta": 1.9, "chi": 0.4, "phi": 0.7, "gamma_t": 1.3, **fields})
    rho = qubit_state(*state)

    def point_only(*entries):
        assert not any(isinstance(x, np.ndarray) for x in entries), "a one-point call took the array route"
        return _eigvalsh3(*entries)

    monkeypatch.setattr(lambda_system, "_eigvalsh3", point_only)
    ic = coherent_information_at(params, rho)
    assert abs(ic - coherent_information(channel_map(params), rho)) <= 1e-12


def test_one_point_and_array_routes_agree_at_edges():
    rng = np.random.default_rng(2113)
    n = 1500

    def column(edges, low, high):
        values = rng.uniform(low, high, n)
        at_edge = rng.random(n) < 0.6
        values[at_edge] = rng.choice(edges, int(at_edge.sum()))
        return values

    # (theta, chi, phi, gamma_t, asym, rho11, radius), radius 1 being a pure input
    points = np.array([
        column([0.0, math.pi, 2.0 * math.pi], 0.0, 2.0 * math.pi),
        column([0.0, math.pi / 2], 0.0, math.pi / 2),
        column([0.0], -math.pi, math.pi),
        column([0.0, math.inf], 0.0, 10.0),
        column([0.0], 0.0, 3.0),
        column([0.0, 1.0], 0.0, 1.0),
        column([0.0, 1.0], 0.0, 1.0),
    ]).T.tolist()
    # the field state has the double eigenvalue 0.216166 at chi = 0.7.  The optimum of the benchmark's
    # theta,chi,asym,rho11 problem at seed 501 has an atom state with a row that is zero up to roundoff,
    # next to the eigenvalues 0 and 0.00114; its neighbours are points a simplex meets
    theta, chi, *rest = (3.1415926490136785, math.pi / 2, -2.1858286574326256, 6.0790643606831125, 0.0,
                         0.49724989342717174, 0.0)
    for step in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
        points.append([math.pi, 0.7 + step, 0.0, 2.0, 1.0, 0.5, 0.0])
        points += [[theta + step, chi, *rest], [theta, chi - step, *rest], [theta - step, chi - step, *rest]]
    arguments = []
    for theta, chi, phi, gamma_t, asym, rho11, radius in points:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        rho12 = complex(radius * math.cos(angle), radius * math.sin(angle)) * math.sqrt(rho11 * (1.0 - rho11))
        arguments.append((theta, chi, phi, gamma_t, asym / (asym + 1.0), rho11, 1.0 - rho11, rho12))

    single = [coherent_information_batch(*point) for point in arguments]
    assert all(type(value) is float for value in single)
    values = coherent_information_batch(*(np.array(column) for column in zip(*arguments)))
    assert np.abs(values - single).max() <= 1e-13


def test_point_spectra_split_a_decoupled_row_exactly(monkeypatch):
    rng = np.random.default_rng(2114)
    eps = np.finfo(float).eps

    def matrix(row, diagonal, pair, coupling):
        """A 3x3 Hermitian matrix: ``diagonal`` at ``row``, a rotated 2x2 block with eigenvalues ``pair``,
        and off-diagonal entries of norm ``coupling`` in ``row``."""
        angle, phase = rng.uniform(0.3, 1.2), rng.uniform(0.0, 2.0 * math.pi)
        rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        rotation = rotation * np.array([1.0, np.exp(1j * phase)])[:, None]
        a = np.zeros((3, 3), dtype=complex)
        others = [k for k in range(3) if k != row]
        a[np.ix_(others, others)] = rotation @ np.diag(pair) @ rotation.conj().T
        a[row, row] = diagonal
        weights = rng.uniform(0.2, 1.0, 2)
        links = coupling * weights / np.linalg.norm(weights) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))
        a[row, others], a[others, row] = links, links.conj()
        return a

    def entries(a):
        return (*(float(a[k, k].real) for k in range(3)), complex(a[0, 1]), complex(a[0, 2]), complex(a[1, 2]))

    cases = []
    for i in range(60):
        small = rng.uniform(0.0, 0.004)
        # each row decoupled, holding each eigenvalue in turn: one of the near-double pair {0, small},
        # or the large one
        spectrum = [0.0, small, 1.0 - small]
        diagonal = spectrum.pop(i // 3 % 3)
        cases.append(matrix(i % 3, diagonal, spectrum, rng.uniform(0.0, 0.9) * eps))
    # the shape of every matrix stack that reaches LAPACK, and every split of the array route as
    # (shape, diagonal entries)
    shapes, splits = [], []
    eigvalsh, split_stack = np.linalg.eigvalsh, lambda_system._split_stack

    def spy(matrices, *args, **kwargs):
        shapes.append(np.shape(matrices))
        return eigvalsh(matrices, *args, **kwargs)

    def split_spy(shape, diagonal, *block):
        splits.append((shape, np.asarray(diagonal).tolist()))
        return split_stack(shape, diagonal, *block)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.setattr(lambda_system, "_split_stack", split_spy)
    # the closed form leaves every case unresolved, and no row is decoupled at every point: the array
    # route splits each matrix at its own row, without LAPACK
    stacked = _eigvalsh3(*(np.array(column) for column in zip(*map(entries, cases))))
    assert shapes == [] and [shape for shape, _ in splits] == [(len(cases),)]
    reference = np.linalg.eigvalsh(np.array(cases))
    traces = np.abs(np.trace(np.array(cases), axis1=1, axis2=2).real)
    assert (np.abs(stacked - reference).max(axis=1) <= 4.0 * eps * traces).all()
    shapes.clear()
    for a in cases:
        split = _eigvalsh3(*entries(a))
        assert type(split) is list and all(type(x) is float for x in split)
        trace = abs(np.trace(a).real)
        assert np.abs(np.array(split) - np.linalg.eigvalsh(a)).max() <= 4.0 * eps * trace
    assert len(shapes) == len(cases)  # the reference calls alone

    def split(a, row):
        """The exact split at ``row``: its diagonal entry, and the eigenvalues of the remaining 2x2 block."""
        others = [k for k in range(3) if k != row]
        p, q = (float(a[k, k].real) for k in others)
        mean, half = 0.5 * (p + q), math.hypot(0.5 * (p - q), abs(complex(a[others[0], others[1]])))
        return sorted((float(a[row, row].real), mean - half, mean + half))

    # rows that tie on the smallest off-diagonal norm split at the first of them.  With a_ij = 0 (i < j) and
    # the other two entries of one norm <= eps |trace|, rows i and j tie; diag(0, 0, 1) in each order ties
    # all three.  Each case is (matrix, tied rows)
    ties = [(np.diag(diagonal).astype(complex), [0, 1, 2])
            for diagonal in sorted(set(itertools.permutations((0.0, 0.0, 1.0))))]
    for k in range(60):
        small = rng.uniform(0.0, 0.004, 2)
        a = np.diag(rng.permutation([*small, 1.0 - small.sum()])).astype(complex)
        tied = [(0, 1), (0, 2), (1, 2)][k % 3]
        first, second = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if (i, j) != tied]
        a[first] = rng.uniform(0.0, 0.9) * eps * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        # each of these has the squared norm of a[first] to the last bit
        a[second] = [a[first].conjugate(), -a[first], 1j * a[first]][rng.integers(3)]
        a[first[::-1]], a[second[::-1]] = a[first].conjugate(), a[second].conjugate()
        ties.append((a, list(tied)))
    for tied in ([0, 1], [0, 2], [1, 2]):  # the tie rule decides the result
        assert any(split(a, rows[0]) != split(a, rows[1]) for a, rows in ties if rows == tied)
    # the array route splits every matrix, each at its own row: all are unresolved by the closed form.  Where
    # numpy's squared norms tie too (its complex arithmetic may round |a_ij|^2 differently), it splits at the
    # first tied row
    shapes.clear()
    splits.clear()
    columns = [np.array(column) for column in zip(*(entries(a) for a, _ in ties))]
    _eigvalsh3(*columns)
    [(shape, diagonals)] = splits
    assert shapes == []
    s12, s13, s23 = ((x * x.conjugate()).real for x in columns[3:])
    norms = [s12 + s13, s12 + s23, s13 + s23]
    exact = [k for k, (_, rows) in enumerate(ties) if norms[rows[0]][k] == norms[rows[1]][k]]
    assert shape == (len(ties),) and len(exact) >= len(ties) // 2
    assert all(diagonals[k] == a[rows[0], rows[0]].real for k, (a, rows) in enumerate(ties) if k in exact)
    for a, rows in ties:
        assert _eigvalsh3(*entries(a)) == split(a, rows[0])
    assert shapes == []

    # a row coupled just above eps |trace| goes to LAPACK, on both routes
    shapes.clear()
    coupled = matrix(0, 0.0, [0.002, 0.998], 1.01 * eps)
    assert _eigvalsh3(*entries(coupled)) == np.linalg.eigvalsh(coupled, UPLO="U").tolist()
    assert shapes == [(3, 3), (3, 3)]
    shapes.clear()
    splits.clear()
    stacked = _eigvalsh3(*(np.array(column) for column in zip(*map(entries, [*cases, coupled]))))
    assert shapes == [(1, 3, 3)] and [shape for shape, _ in splits] == [(len(cases) + 1,)]
    assert stacked[-1].tolist() == np.linalg.eigvalsh(coupled, UPLO="U").tolist()


def test_array_spectra_split_exact_structures_without_lapack(monkeypatch):
    rng = np.random.default_rng(2615)
    eps = np.finfo(float).eps
    lapack_shapes, split_shapes = [], []
    lapack, split_stack = lambda_system._lapack_eigvalsh3, lambda_system._split_stack

    def lapack_spy(shape, *entries):
        lapack_shapes.append(shape)
        return lapack(shape, *entries)

    def split_spy(shape, *block):
        split_shapes.append(shape)
        return split_stack(shape, *block)

    monkeypatch.setattr(lambda_system, "_lapack_eigvalsh3", lapack_spy)
    monkeypatch.setattr(lambda_system, "_split_stack", split_spy)

    def diagonal(shape):
        return rng.uniform(0.2, 1.0, shape)

    def coupling(shape):
        return rng.uniform(0.0, 0.2, shape) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, shape))

    def roundoff(shape):
        """Entries below 0.2 eps: two of them have a norm below eps times any trace here, at least 0.4."""
        return coupling(shape) * eps

    def spectra(entries, shape):
        """The array route's spectra of the matrices with these entries, and LAPACK's as a reference."""
        values = _eigvalsh3(*entries)
        assert values.shape == shape + (3,)
        a = np.zeros(shape + (3, 3), dtype=complex)
        for (i, j), x in zip([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)], np.broadcast_arrays(*entries)):
            a[..., i, j], a[..., j, i] = x, np.conj(x)
        return values, np.linalg.eigvalsh(a), np.abs(np.trace(a, axis1=-2, axis2=-1))

    zero = np.zeros((257,), dtype=complex)
    signed_zero = np.full((257,), complex(-0.0, -0.0))  # complete decay's row 3 may hold -0.0
    photon, r2 = diagonal(257), diagonal((5, 9))
    # (entries, shape, a change at one point that breaks the split: (index in entries, value added there))
    stacks = [
        # each row zero off the diagonal at every point, as arrays, -0.0 or a Python zero, or zero up to roundoff
        ((diagonal(257), diagonal(257), diagonal(257), zero, signed_zero, coupling(257)), (257,), (3, 0.05)),
        ((diagonal(257), diagonal(257), diagonal(257), zero, coupling(257), 0j), (257,), (5, 0.05j)),
        ((diagonal(257), diagonal(257), 0.0, coupling(257), signed_zero, zero), (257,), (4, 1e-3)),
        ((diagonal(257), diagonal(257), diagonal(257), roundoff(257), coupling(257), roundoff(257)), (257,),
         (3, 0.05)),
        ((diagonal(257), diagonal(257), 0.0, coupling(257), roundoff(257), -roundoff(257)), (257,), (4, 1e-3)),
        # the field state's arrow at asym = 1: a23 = 0 and a22 = a33; its a12, a13 are real
        ((diagonal(257), photon, photon.copy(), np.abs(coupling(257)), np.abs(coupling(257)), 0.0), (257,),
         (2, 1e-3)),
        # R2 arrows with complex a12 and a13, on a 2-D stack
        ((diagonal((5, 9)), r2, r2.copy(), coupling((5, 9)), coupling((5, 9)), np.zeros((5, 9))), (5, 9),
         (5, 0.05j)),
        # a diagonal stack: a change at one entry leaves a row decoupled
        ((diagonal(257), diagonal(257), diagonal(257), zero, zero, zero), (257,), None),
    ]
    for entries, shape, change in stacks:
        values, reference, trace = spectra(entries, shape)
        assert (np.diff(values, axis=-1) >= 0.0).all()
        assert (np.abs(values - reference).max(axis=-1) <= 4.0 * eps * trace).all()
        assert (split_shapes, lapack_shapes) == ([shape], [])
        split_shapes.clear()
        if change is None:
            continue
        # one point that breaks the structure sends the whole stack to the closed form.  Of the matrices that
        # it leaves unresolved, those with a decoupled row split one by one; only the broken point may not
        index, value = change
        broken = list(np.broadcast_arrays(*entries))
        broken[index] = broken[index].astype(complex if index > 2 else float)
        broken[index][(0,) * len(shape)] += value
        values, reference, _ = spectra(broken, shape)
        assert np.abs(values - reference).max() <= 1e-13
        assert shape not in split_shapes and sum(map(math.prod, lapack_shapes)) <= 1
        split_shapes.clear()
        lapack_shapes.clear()


def test_array_spectra_split_mixed_stacks_matrix_by_matrix(monkeypatch):
    # fig1b's atom state, whose row 2 is zero up to roundoff at chi = pi/2 (cos chi = 6.1e-17), at every other
    # point, and coupled at chi = pi/2 - 1e-4 at the rest: no row is decoupled at every point of the stack
    rng = np.random.default_rng(2800)
    eps = np.finfo(float).eps
    n = 400
    decoupled = np.arange(n) % 2 == 0
    theta, gamma_t = rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(0.0, 8.0, n)
    chi = np.where(decoupled, math.pi / 2, math.pi / 2 - 1e-4)
    _, atom = _states(theta, chi, 0.0, gamma_t, 0.5, 0.5, 0.5, 0j)
    splits, reached = [], []
    split_stack, lapack = lambda_system._split_stack, lambda_system._lapack_eigvalsh3

    def split_spy(shape, *block):
        splits.append(shape)
        return split_stack(shape, *block)

    def lapack_spy(shape, *entries):
        reached.extend(entries[0].tolist())  # a11 identifies the matrix
        return lapack(shape, *entries)

    monkeypatch.setattr(lambda_system, "_split_stack", split_spy)
    monkeypatch.setattr(lambda_system, "_lapack_eigvalsh3", lapack_spy)
    values = _eigvalsh3(*atom)
    a = np.zeros((n, 3, 3), dtype=complex)
    for (i, j), x in zip([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)], np.broadcast_arrays(*atom)):
        a[:, i, j], a[:, j, i] = x, np.conj(x)
    reference, trace = np.linalg.eigvalsh(a), np.abs(np.trace(a, axis1=1, axis2=2))
    # the closed form leaves some matrices of each kind unresolved: of those, only the coupled reach LAPACK
    [(left,)] = splits
    assert 0 < len(reached) < left
    assert set(reached) <= set(atom[0][~decoupled].tolist())
    assert (np.abs(values - reference)[decoupled].max(axis=-1) <= 4.0 * eps * trace[decoupled]).all()
    assert np.abs(values - reference).max() <= 1e-13
    # the one-point route, which splits the same rows, agrees
    monkeypatch.undo()
    arguments = [(t, c, 0.0, g, 0.5, 0.5, 0.5, 0j) for t, c, g in zip(theta.tolist(), chi.tolist(), gamma_t.tolist())]
    single = [coherent_information_batch(*point) for point in arguments]
    assert np.abs(coherent_information_batch(theta, chi, 0.0, gamma_t, 0.5, 0.5, 0.5, 0j) - single).max() <= 1e-13


def test_no_preset_spectrum_reaches_lapack(monkeypatch, capsys):
    calls = []
    lapack = lambda_system._lapack_eigvalsh3
    monkeypatch.setattr(lambda_system, "_lapack_eigvalsh3", lambda *args: calls.append(args) or lapack(*args))
    for figure in FIGURES:
        for fmt in ("csv", "json"):
            assert cli.main(["figure", "--figure", figure, "--format", fmt]) == 0
    assert capsys.readouterr().out and calls == []


def test_preset_surfaces_match_lapack_spectra(monkeypatch):
    split_shapes = []
    split_stack = lambda_system._split_stack

    def split_spy(shape, *block):
        split_shapes.append(shape)
        return split_stack(shape, *block)

    monkeypatch.setattr(lambda_system, "_split_stack", split_spy)
    surfaces, splits = {}, {}
    for figure in FIGURES:
        surfaces[figure] = grid_sweep(figure_preset(figure)).values
        splits[figure] = split_shapes.copy()
        split_shapes.clear()
    # every preset's two states split as whole stacks: the field at asym = 1 or, in fig2b (theta = pi, a
    # maximally mixed input), where its photon entries vanish up to roundoff; the atom where its row 3 is zero
    # (gamma_t = inf) or, in fig1b, where its row 2 is zero up to roundoff (chi = pi/2)
    assert splits == {figure: [(41 * 41,)] * 2 for figure in FIGURES}

    def lapack(*entries):
        return lambda_system._lapack_eigvalsh3(np.broadcast(*entries).shape, *entries)

    monkeypatch.setattr(lambda_system, "_eigvalsh3", lapack)
    for figure, values in surfaces.items():
        reference = grid_sweep(figure_preset(figure)).values
        assert np.isfinite(reference).all()
        assert np.abs(values - reference).max() <= 1e-14


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("shape", [(), (7,), (2,)])
def test_lapack_entry_reads_the_upper_triangle(shape, dtype):
    rng = np.random.default_rng(2300)
    a = rng.normal(size=shape + (3, 3)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.normal(size=shape + (3, 3))
    full = a + np.swapaxes(a, -1, -2).conj()
    diagonal = (full[..., k, k].real for k in range(3))
    upper = (full[..., i, j] for i, j in ((0, 1), (0, 2), (1, 2)))
    values = _lapack_eigvalsh3(shape, *diagonal, *upper)
    assert values.shape == shape + (3,)
    # the matrices it builds have a zero lower triangle: LAPACK must read the upper one
    assert np.array_equal(values, np.linalg.eigvalsh(full, UPLO="U"))
    lower = np.linalg.eigvalsh(full)
    assert (np.abs(values - lower).max(axis=-1) <= 1e-14 * np.abs(lower).max(axis=-1)).all()


@pytest.mark.parametrize(
    "r11, r22, error, message",
    [
        (1.5, -0.5, NegativeProbability, "probability -8.251e-02 below -1e-10"),
        (0.3, 0.3, NotNormalized, "probabilities sum to 0.6, expected 1"),
    ],
)
def test_one_point_route_words_errors_as_the_array_route(r11, r22, error, message):
    point = (1.0, 0.7, 0.0, math.inf, 0.5, r11, r22, 0j)
    with pytest.raises(error) as one:
        coherent_information_batch(*point)
    with pytest.raises(error) as stack:
        coherent_information_batch(*(np.array([x]) for x in point))
    assert str(one.value) == str(stack.value) == message


def test_evaluator_matches_independent_reference_for_general_pulses():
    reference = load_benchmark_reference()
    rng = np.random.default_rng(2029)
    n = 200
    theta = rng.uniform(0.0, 4.0 * math.pi, n)
    chi = rng.uniform(0.0, math.pi / 2, n)
    phi = rng.uniform(-math.pi, math.pi, n)
    gamma_t = rng.choice([0.0, math.inf, 0.7, 3.1], n)
    gamma_t[gamma_t == 0.7] = rng.uniform(0.05, 8.0, int(np.sum(gamma_t == 0.7)))
    asym = rng.uniform(0.0, 2.0, n)
    rho11 = rng.uniform(0.0, 1.0, n)
    radius = np.sqrt(rho11 * (1.0 - rho11)) * rng.uniform(0.0, 1.0, n)
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    rho = reference.state(rho11, radius * np.cos(angle), radius * np.sin(angle))
    assert {0.0, math.inf} <= set(gamma_t.tolist())
    assert np.iscomplexobj(rho) and np.abs(rho[:, 0, 1].imag).max() > 0.1

    ours = coherent_information_batch(
        theta, chi, phi, gamma_t, asym / (asym + 1.0), rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1]
    )
    theirs = reference.evaluate(theta, chi, phi, gamma_t, asym, rho)["Ic"]
    assert np.abs(ours - theirs).max() < 1e-12


def test_closed_form_spectra_match_lapack_at_edges():
    rng = np.random.default_rng(1061)
    n = 2048

    def column(edges, low, high):
        values = rng.uniform(low, high, n)
        at_edge = rng.random(n) < 0.5
        values[at_edge] = rng.choice(edges, int(at_edge.sum()))
        return values

    theta = column([0.0, math.pi, 2.0 * math.pi], 0.0, 2.0 * math.pi)
    chi = column([0.0, math.pi / 4, math.pi / 2], 0.0, math.pi / 2)
    phi = column([0.0], -math.pi, math.pi)
    gamma_t = column([0.0, math.inf], 0.0, 10.0)
    asym = column([0.0, 1.0], 0.0, 3.0)
    rho11 = column([0.0, 0.5, 1.0], 0.0, 1.0)
    # a fraction 1 of the largest coherence makes the input pure
    radius = column([0.0, 1.0], 0.0, 1.0) * np.sqrt(rho11 * (1.0 - rho11))
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    # named edges, as (theta, chi, phi, gamma_t, asym, rho11, radius)
    edges = [
        (0.0, 0.7, 0.3, 2.0, 0.5, 0.3, math.sqrt(0.21)),  # pure input, no pulse: a pure atom state
        (1.9, 0.4, 0.0, 1.0, 2.0, 0.0, 0.0),  # rho11 = 0
        (1.9, 0.4, 0.0, 1.0, 2.0, 1.0, 0.0),  # rho11 = 1
        (2.5, math.pi / 2, 0.0, math.inf, 1.0, 0.0, 0.0),  # asym = 1, dark input: G_33 = 0
        (0.0, 0.3, 0.0, math.inf, 1.0, 0.5, 0.0),  # atom state diag(1/2, 1/2, 0)
        (math.pi, math.pi / 2, 0.0, math.inf, 1.0, 2.0 / 3.0, 0.0),  # field state I/3
    ]
    for i, edge in enumerate(edges):
        theta[i], chi[i], phi[i], gamma_t[i], asym[i], rho11[i], radius[i] = edge
    rho12 = radius * np.cos(angle) + 1j * (radius * np.sin(angle))
    rho = np.moveaxis(np.array([[rho11, rho12], [rho12.conj(), 1.0 - rho11]]), -1, 0)
    alpha1 = asym / (asym + 1.0)

    field, atom = _states(theta, chi, phi, gamma_t, alpha1, rho11, 1.0 - rho11, rho12)
    spectra = np.stack([_eigvalsh3(*field), _eigvalsh3(*atom)])
    assert np.diff(spectra, axis=-1).min() >= -1e-14  # ascending, up to roundoff
    ours = entropy_bits(spectra)
    # the states built from the isometry W = V U, one point at a time
    w = np.array([
        (_decay(a1, gt) @ _pulse(th, ch, ph)).reshape(3, 3, 2)
        for th, ch, ph, gt, a1 in zip(theta, chi, phi, gamma_t, alpha1)
    ])
    field = np.einsum("ikam,imn,ikbn->iab", w, rho, w.conj())
    atom = np.einsum("ikam,imn,ilan->ikl", w, rho, w.conj())
    theirs = entropy_bits(np.stack([np.linalg.eigvalsh(field), np.linalg.eigvalsh(atom)]))
    assert np.abs(ours - theirs).max() <= 1e-12

    # a triple eigenvalue leaves the closed form's angle undefined
    third, zero = np.full(n, 1.0 / 3.0), np.zeros(n)
    assert np.abs(_eigvalsh3(third, third, third, zero, zero, zero) - 1.0 / 3.0).max() <= 1e-15
