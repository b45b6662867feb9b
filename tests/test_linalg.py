import numpy as np
import pytest

from lambda_capacity import linalg
from lambda_capacity.linalg import NegativeProbability, NotNormalized, entropy_bits
from oracle import NotHermitian, NotSquare, hermitian_eigensystem


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


def _numpy_route(monkeypatch, p):
    """entropy_bits(p) with every stack through the numpy route; returns the value or the raised (type, message)."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "FLOAT_ENTRIES", 0)
        try:
            return entropy_bits(p)
        except ValueError as err:
            return type(err), str(err)


def test_small_stacks_in_floats_match_the_numpy_route(monkeypatch):
    rng = np.random.default_rng(17)
    stacks = []
    for shape in [(3,), (2, 3), (4, 4), (2, 2, 3), (1, 16), (0, 3)]:
        p = rng.random(shape)
        p /= p.sum(axis=-1, keepdims=True)
        stacks.append(p)
    # roundoff negatives, zeros and a point mass take the float route too
    stacks.append(np.array([[1.0 + 5e-11, -5e-11, 0.0], [0.0, 1.0, 0.0]]))
    for p in stacks:
        assert p.size <= linalg.FLOAT_ENTRIES
        ours, theirs = entropy_bits(p), _numpy_route(monkeypatch, p)
        assert np.shape(ours) == np.shape(theirs)
        assert np.abs(np.asarray(ours) - theirs).max(initial=0.0) <= 1e-15
    # a failing stack raises the numpy route's error, first check first
    bad = [
        np.array([0.5, 0.4]),
        np.array([[1.1, -0.1, 0.0], [np.nan, 1.0, 0.0]]),  # NaN in a later row still raises first
        np.array([[0.5, 0.5, 0.0], [1.1, -0.1, 0.0]]),
        np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 1e-7]]),
        np.array([np.inf, 1.0]),
        np.zeros(0),
    ]
    for p in bad:
        with pytest.raises(ValueError) as err:
            entropy_bits(p)
        assert (type(err.value), str(err.value)) == _numpy_route(monkeypatch, p)
