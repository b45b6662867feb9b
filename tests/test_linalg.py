import math

import numpy as np
import pytest

from lambda_capacity.linalg import NegativeProbability, NotNormalized, _float_entropy, entropy_bits
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


def test_small_stacks_in_floats_match_the_numpy_route():
    rng = np.random.default_rng(17)
    rows = []
    for n in (1, 2, 3, 4, 16):
        p = rng.random((4, n))
        rows.extend((p / p.sum(axis=-1, keepdims=True)).tolist())
    # roundoff negatives, zeros and a point mass
    rows += [[1.0 + 5e-11, -5e-11, 0.0], [0.0, 1.0, 0.0], [1.0]]
    for row in rows:
        # the sums may run in another order: a few ulps of the entropy
        assert math.isclose(_float_entropy(row), entropy_bits(np.array(row)), rel_tol=1e-15, abs_tol=1e-15)
    # _float_entropy refuses exactly the vectors on which entropy_bits raises
    bad = [[0.5, 0.4], [1.1, -0.1, 0.0], [math.nan, 1.0, 0.0], [0.5, 0.5, 1e-7], [math.inf, 1.0], [-math.inf, 1.0], []]
    for row in bad:
        assert _float_entropy(row) is None
        with pytest.raises(ValueError):
            entropy_bits(np.array(row))


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_entropy_sums_columns_bit_for_bit(width):
    rng = np.random.default_rng(19 + width)
    for shape in ((64, width), (3, 7, width), (2, width)):
        p = rng.random(shape)
        if width > 1:  # zero entries
            p[..., 0] = np.where(rng.random(shape[:-1]) < 0.3, 0.0, p[..., 0])
        p /= p.sum(axis=-1, keepdims=True)
        logs = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
        reference = -(p * logs).sum(axis=-1)
        reference = np.where(reference > 0.0, reference, 0.0)
        assert np.array_equal(entropy_bits(p), reference)
        # the normalization check sums each vector as numpy does: it reports the same sum
        off = p * 1.5
        with pytest.raises(NotNormalized) as error:
            entropy_bits(off)
        assert str(error.value) == f"probabilities sum to {float(off.reshape(-1, width)[0].sum())!r}, expected 1"


def test_entropy_of_empty_vectors_is_not_normalized():
    for p in (np.array([]), np.zeros((3, 0)), np.zeros((2, 4, 0)), np.zeros((1, 2, 3, 0))):
        with pytest.raises(NotNormalized, match="probabilities sum to 0.0, expected 1"):
            entropy_bits(p)
