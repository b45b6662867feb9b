import numpy as np
import pytest

from lambda_capacity.channel import (
    ChannelMap,
    DensityMatrix,
    DimensionMismatch,
    NotDensityMatrix,
    choi_matrix,
    qubit_state,
    validate_channel,
)
from oracle import (
    OutputNotDensity,
    State,
    apply_channel,
    coherent_information,
    entropy,
    entropy_exchange,
    identity_channel,
    joint_output,
    purify,
    spectrum,
)


def random_density(dim, rng):
    """A random state: the package's qubit state for dim 2, the oracle's state otherwise."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return (DensityMatrix if dim == 2 else State)(rho / rho.trace())


def random_cptp(dim_in, dim_out, dim_env, rng):
    """Random channel via an isometry into output x environment."""
    a = rng.normal(size=(dim_env * dim_out, dim_in)) + 1j * rng.normal(size=(dim_env * dim_out, dim_in))
    w, _ = np.linalg.qr(a)
    w = w[:, :dim_in].reshape(dim_env, dim_out, dim_in)
    return ChannelMap(np.einsum("kam,kbn->mnab", w, w.conj()))


# ---------------------------------------------------------------- densities


def test_density_matrix_validation():
    with pytest.raises(NotDensityMatrix):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(NotDensityMatrix):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(NotDensityMatrix):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(NotDensityMatrix):
        DensityMatrix(np.eye(3) / 3.0)  # a state, but not a qubit's


def test_qubit_state_boundary():
    rho = qubit_state(0.5, 0.5)
    assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))
    with pytest.raises(NotDensityMatrix):
        qubit_state(0.1, 0.5)  # |rho12|^2 > rho11 * rho22
    with pytest.raises(NotDensityMatrix):
        qubit_state(0.5, 1.7e308)  # m + m^H overflows: must not pass as NaN


# ------------------------------------------------------------- purification


def test_purify_maximally_mixed():
    psi = purify(qubit_state(0.5))
    assert np.allclose(psi, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_purify_pure_state_is_product():
    psi = purify(DensityMatrix(np.diag([1.0, 0.0])))
    assert np.allclose(psi, [1, 0, 0, 0])


def test_purify_diagonal():
    psi = purify(DensityMatrix(np.diag([0.25, 0.75])))
    assert np.allclose(psi, [0.5, 0, 0, np.sqrt(3) / 2])


def test_purify_partial_trace_recovers_state():
    rng = np.random.default_rng(21)
    for dim in (2, 3, 4):
        for _ in range(10):
            rho = random_density(dim, rng)
            psi = purify(rho)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
            m = psi.reshape(dim, dim)
            assert np.max(np.abs(m @ m.conj().T - rho.matrix)) < 1e-10


# ------------------------------------------------------------- channel ops


def test_identity_channel_fixes_states():
    rng = np.random.default_rng(5)
    chan = identity_channel(3)
    for _ in range(5):
        rho = random_density(3, rng)
        assert np.max(np.abs(apply_channel(chan, rho).matrix - rho.matrix)) < 1e-12


def test_apply_channel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_channel(identity_channel(3), qubit_state(0.5))


def test_apply_channel_rejects_malformed_map():
    broken = ChannelMap(np.zeros((2, 2, 3, 3)))
    with pytest.raises(OutputNotDensity):
        apply_channel(broken, qubit_state(0.5))


def test_joint_output_identity_is_pure_projector():
    rng = np.random.default_rng(9)
    chan = identity_channel(2)
    for _ in range(5):
        rho = random_density(2, rng)
        joint = joint_output(chan, rho)
        psi = purify(rho)
        assert np.max(np.abs(joint.matrix - np.outer(psi, psi.conj()))) < 1e-12
        assert entropy_exchange(chan, rho) < 1e-10


def test_joint_output_partial_trace_matches_direct_output():
    rng = np.random.default_rng(13)
    for _ in range(10):
        chan = random_cptp(2, 3, 3, rng)
        rho = random_density(2, rng)
        joint = joint_output(chan, rho).matrix.reshape(3, 2, 3, 2)
        reduced = np.einsum("apbp->ab", joint)
        assert np.max(np.abs(reduced - apply_channel(chan, rho).matrix)) < 1e-10


def test_pure_input_entropy_exchange_equals_output_entropy():
    rng = np.random.default_rng(17)
    for _ in range(10):
        chan = random_cptp(2, 3, 3, rng)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho = DensityMatrix(np.outer(v, v.conj()))
        s_out = entropy(apply_channel(chan, rho))
        assert abs(entropy_exchange(chan, rho) - s_out) < 1e-10


def test_coherent_information_identity_channel():
    rng = np.random.default_rng(29)
    chan = identity_channel(2)
    for _ in range(10):
        rho = random_density(2, rng)
        assert coherent_information(chan, rho) == pytest.approx(entropy(rho), abs=1e-10)


def test_coherent_information_bounded_by_input_dimension():
    rng = np.random.default_rng(31)
    for _ in range(20):
        chan = random_cptp(2, 3, 2, rng)
        rho = random_density(2, rng)
        assert coherent_information(chan, rho) <= 1.0 + 1e-10


def test_trace_preserved_through_valid_channel():
    rng = np.random.default_rng(37)
    chan = random_cptp(2, 3, 3, rng)
    assert validate_channel(chan).passes
    for _ in range(100):
        rho = random_density(2, rng)
        assert abs(apply_channel(chan, rho).matrix.trace() - 1.0) < 1e-10


def test_output_basis_phases_do_not_move_spectra():
    # conjugating every transfer operator by a fixed diagonal unitary must
    # leave both output and joint spectra alone
    rng = np.random.default_rng(41)
    chan = random_cptp(2, 3, 2, rng)
    d = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=3)))
    twisted = ChannelMap(np.einsum("ac,mncd,bd->mnab", d, chan.s, d.conj()))
    rho = random_density(2, rng)
    assert np.max(np.abs(
        spectrum(apply_channel(chan, rho)) - spectrum(apply_channel(twisted, rho))
    )) < 1e-10
    assert np.max(np.abs(
        spectrum(joint_output(chan, rho)) - spectrum(joint_output(twisted, rho))
    )) < 1e-10


# ---------------------------------------------------------------- validation


def test_validate_identity_channel():
    report = validate_channel(identity_channel(2))
    assert report.passes
    assert report.trace_deviation < 1e-14
    assert report.hermiticity_deviation < 1e-14
    assert report.min_choi_eigenvalue > -1e-14


def test_validate_flags_trace_violation():
    s = identity_channel(2).s.copy()
    s[0, 0] *= 0.9
    report = validate_channel(ChannelMap(s))
    assert not report.passes
    assert report.trace_deviation == pytest.approx(0.1, abs=1e-12)


def test_choi_matrix_of_identity_is_maximally_entangled():
    choi = choi_matrix(identity_channel(2))
    assert np.allclose(np.linalg.eigvalsh(choi), [0, 0, 0, 2])

