import numpy as np
import pytest

from lambda_capacity.linalg import (
    NegativeProbability,
    NotHermitian,
    NotNormalized,
    NotSquare,
    entropy_bits,
    hermitian_eigensystem,
    kron,
)


def test_identity_eigensystem():
    spec = hermitian_eigensystem(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])
    v = spec.eigenvectors
    assert np.allclose(v.conj().T @ v, np.eye(3))


def test_pauli_x_eigensystem():
    spec = hermitian_eigensystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.eigenvalues, [1.0, -1.0])
    # symmetry forces both eigenvectors to have equal-weight components
    assert np.allclose(np.abs(spec.eigenvectors), 1.0 / np.sqrt(2.0))


def test_random_hermitian_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + a.conj().T
        spec = hermitian_eigensystem(h)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-10
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_eigensystem_rejects_non_square():
    with pytest.raises(NotSquare):
        hermitian_eigensystem(np.zeros((2, 3)))


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        hermitian_eigensystem(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_entropy_known_values():
    assert entropy_bits(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    assert entropy_bits(np.array([1.0, 0.0, 0.0])) == 0.0
    assert entropy_bits(np.array([0.75, 0.25])) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_entropy_permutation_invariant():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert entropy_bits(p) == entropy_bits(p[::-1])
    assert entropy_bits(p) == entropy_bits(np.array([0.3, 0.1, 0.4, 0.2]))


def test_entropy_range_for_random_spectra():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(2, 9)
        p = rng.random(n)
        p /= p.sum()
        s = entropy_bits(p)
        assert 0.0 <= s <= np.log2(n) + 1e-12


def test_entropy_clamps_roundoff_negatives():
    assert entropy_bits(np.array([1.0 + 5e-11, -5e-11])) == 0.0


def test_entropy_rejects_bad_input():
    with pytest.raises(NegativeProbability):
        entropy_bits(np.array([1.1, -0.1]))
    with pytest.raises(NotNormalized):
        entropy_bits(np.array([0.5, 0.4]))
    with pytest.raises(NotNormalized):
        entropy_bits(np.array([np.nan, 1.0]))


def test_kron_identities_and_shapes():
    assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))
    assert kron(np.ones((3, 2)), np.ones((2, 2))).shape == (6, 4)


def test_kron_mixed_product_and_associativity():
    rng = np.random.default_rng(3)
    cplx = lambda: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a, b, c, d = cplx(), cplx(), cplx(), cplx()
    assert np.max(np.abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d))) < 1e-12
    assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-12
