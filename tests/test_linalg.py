import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specweight.linalg import (
    ConvergenceError,
    EigenDecomposition,
    fix_column_signs,
    symmetric_eigen,
)
from specweight.errors import NumericalError


def symmetric_matrices(max_n=12):
    return (
        st.integers(min_value=1, max_value=max_n)
        .flatmap(lambda n: st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=n * n, max_size=n * n))
        .map(lambda entries: np.array(entries).reshape(int(np.sqrt(len(entries))), -1))
        .map(lambda m: (m + m.T) / 2.0)
    )


class TestSymmetricEigen:
    def test_identity(self):
        dec = symmetric_eigen(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
        assert np.allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        dec = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])
        # axis-aligned, sign convention makes them exactly the unit vectors
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)
        assert np.all(dec.eigenvectors.max(axis=0) > 0)

    def test_path_graph_laplacian(self):
        # det(L - t I) expands to t (1 - t) (t - 3): roots 0, 1, 3
        lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        oracle = np.sort(np.roots([1.0, -4.0, 3.0, 0.0]))
        dec = symmetric_eigen(lap)
        assert np.allclose(dec.eigenvalues, oracle, atol=1e-9)
        assert np.allclose(dec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigen(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 2.0], [2.1, 1.0]])
        with pytest.raises(ValueError):
            symmetric_eigen(m)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            symmetric_eigen(np.zeros((0, 0)))

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            symmetric_eigen(np.eye(3))
        assert issubclass(ConvergenceError, NumericalError)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            symmetric_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(30, 30))
        m = (m + m.T) / 2
        d1 = symmetric_eigen(m)
        d2 = symmetric_eigen(m.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_residual_and_orthogonality_medium(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(-10, 10, size=(200, 200))
        m = (m + m.T) / 2
        dec = symmetric_eigen(m)
        lam, v = dec.eigenvalues, dec.eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(200))) < 1e-8
        assert np.max(np.abs(m @ v - v * lam)) < 1e-7
        assert abs(lam.sum() - np.trace(m)) < 1e-8
        # independent oracle for the spectrum itself
        assert np.allclose(lam, np.linalg.eigvalsh(m), atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(symmetric_matrices())
    def test_reconstruction_property(self, m):
        dec = symmetric_eigen(m)
        lam, v = dec.eigenvalues, dec.eigenvectors
        n = m.shape[0]
        assert np.max(np.abs(v @ np.diag(lam) @ v.T - m)) < 1e-7
        assert abs(lam.sum() - np.trace(m)) < 1e-8
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-8
        assert np.all(np.diff(lam) >= 0)
        assert np.allclose(lam, np.linalg.eigvalsh(m), atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(symmetric_matrices(max_n=8))
    def test_eigenpair_residuals(self, m):
        dec = symmetric_eigen(m)
        for k in range(m.shape[0]):
            resid = m @ dec.eigenvectors[:, k] - dec.eigenvalues[k] * dec.eigenvectors[:, k]
            assert np.max(np.abs(resid)) < 1e-7
            assert abs(np.linalg.norm(dec.eigenvectors[:, k]) - 1.0) < 1e-8


class TestSignConvention:
    def test_largest_entry_positive(self):
        v = np.array([[0.8, -0.3], [-0.6, 0.7]])
        fixed = fix_column_signs(v.copy())
        for j in range(2):
            lead = np.argmax(np.abs(fixed[:, j]))
            assert fixed[lead, j] > 0

    def test_tie_breaks_to_lowest_index(self):
        v = np.array([[-0.5], [0.5]])
        fixed = fix_column_signs(v)
        assert fixed[0, 0] == 0.5 and fixed[1, 0] == -0.5

    def test_applied_by_solver(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(10, 10))
        m = (m + m.T) / 2
        v = symmetric_eigen(m).eigenvectors
        lead = np.argmax(np.abs(v), axis=0)
        assert np.all(v[lead, np.arange(10)] > 0)
