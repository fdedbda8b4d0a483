import numpy as np
import pytest

from gpdr.numerics import NumericsError, check_matrix, sym_eigen


def test_check_matrix_accepts_lists():
    m = check_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.shape == (2, 2)


def test_check_matrix_rejects_bad_input():
    with pytest.raises(NumericsError):
        check_matrix([1, 2, 3])
    with pytest.raises(NumericsError):
        check_matrix([[1.0, np.nan]])
    with pytest.raises(NumericsError):
        check_matrix([[1.0, np.inf]])


def test_sym_eigen_reconstructs_matrix():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        m = a + a.T
        eig = sym_eigen(m)
        w, v = eig.eigenvalues, eig.eigenvectors
        assert np.all(np.diff(w) <= 1e-12)  # descending
        assert np.allclose(v @ np.diag(w) @ v.T, m, atol=1e-9)
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-9)


def test_sym_eigen_sign_convention():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 6))
    eig = sym_eigen(a + a.T)
    v = eig.eigenvectors
    pivot = np.argmax(np.abs(v), axis=0)
    assert np.all(v[pivot, np.arange(6)] >= 0)


def test_sym_eigen_known_values():
    # eigenvalues of [[2,1],[1,2]] are 3 and 1
    eig = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(eig.eigenvalues, [3.0, 1.0])
    assert np.allclose(np.abs(eig.eigenvectors[:, 0]),
                       [1 / np.sqrt(2)] * 2)


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(NumericsError):
        sym_eigen([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericsError):
        sym_eigen(np.zeros((2, 3)))
