"""The eigensolve and the eigenvector sign rule of `factor_graph`, the
layer that perfbench's spans call `linalg`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specweight.errors import NumericalError
from specweight.factor_graph import (
    FactorTable,
    build_graph,
    fix_column_signs,
    laplacian,
    symmetric_eigen,
)


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
        lam, v = symmetric_eigen(np.eye(3))
        assert np.allclose(lam, [1.0, 1.0, 1.0])
        assert np.allclose(v.T @ v, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        lam, v = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(lam, [1.0, 2.0, 3.0])
        # axis-aligned: up to sign, exactly the unit vectors
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_path_graph_laplacian(self):
        # det(L - t I) expands to t (1 - t) (t - 3): roots 0, 1, 3
        lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        oracle = np.sort(np.roots([1.0, -4.0, 3.0, 0.0]))
        lam, _ = symmetric_eigen(lap)
        assert np.allclose(lam, oracle, atol=1e-9)
        assert np.allclose(lam, [0.0, 1.0, 3.0], atol=1e-9)

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="eigensolver did not converge"):
            symmetric_eigen(np.eye(3))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(30, 30))
        m = (m + m.T) / 2
        lam1, v1 = symmetric_eigen(m)
        lam2, v2 = symmetric_eigen(m.copy())
        assert np.array_equal(lam1, lam2)
        assert np.array_equal(v1, v2)

    def test_residual_and_orthogonality_medium(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(-10, 10, size=(200, 200))
        m = (m + m.T) / 2
        lam, v = symmetric_eigen(m)
        assert np.max(np.abs(v.T @ v - np.eye(200))) < 1e-8
        assert np.max(np.abs(m @ v - v * lam)) < 1e-7
        assert abs(lam.sum() - np.trace(m)) < 1e-8
        # independent oracle for the spectrum itself
        assert np.allclose(lam, np.linalg.eigvalsh(m), atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(symmetric_matrices())
    def test_reconstruction_property(self, m):
        lam, v = symmetric_eigen(m)
        n = m.shape[0]
        assert np.max(np.abs(v @ np.diag(lam) @ v.T - m)) < 1e-7
        assert abs(lam.sum() - np.trace(m)) < 1e-8
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-8
        assert np.all(np.diff(lam) >= 0)
        assert np.allclose(lam, np.linalg.eigvalsh(m), atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(symmetric_matrices(max_n=8))
    def test_eigenpair_residuals(self, m):
        lam, v = symmetric_eigen(m)
        for k in range(m.shape[0]):
            resid = m @ v[:, k] - lam[k] * v[:, k]
            assert np.max(np.abs(resid)) < 1e-7
            assert abs(np.linalg.norm(v[:, k]) - 1.0) < 1e-8


@st.composite
def knn_laplacians(draw):
    """Laplacian of a kNN graph over 1-4 far-apart clusters of 2-8 points.
    k stays below the smallest cluster size, so no edge crosses clusters and
    the graph has at least one component per cluster."""
    sizes = draw(st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=4))
    n_factors = draw(st.integers(min_value=1, max_value=3))
    coords = st.floats(min_value=-5, max_value=5, allow_nan=False)
    rows = []
    for c, size in enumerate(sizes):
        for _ in range(size):
            point = draw(st.lists(coords, min_size=n_factors, max_size=n_factors))
            rows.append([1000.0 * c + x for x in point])
    k = draw(st.integers(min_value=1, max_value=min(sizes) - 1))
    table = FactorTable(np.array(rows), tuple(f"f{j}" for j in range(n_factors)))
    return laplacian(build_graph(table, k))


class TestValuesOnly:
    """symmetric_eigen(lap, vectors=False): the eigenvalues alone."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(symmetric_matrices(), knn_laplacians()))
    def test_eigenvalues_match_full_solve(self, m):
        full, _ = symmetric_eigen(m)
        lam, none = symmetric_eigen(m, vectors=False)
        assert none is None
        assert lam.shape == (m.shape[0],)
        assert np.all(np.diff(lam) >= 0)
        n = m.shape[0]
        tol = 4 * n * np.finfo(float).eps * np.linalg.norm(m)
        assert np.max(np.abs(lam - full)) <= tol

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericalError, match="eigensolver did not converge"):
            symmetric_eigen(np.eye(3), vectors=False)

    def test_exactly_symmetric_input_reaches_lapack_unchanged(self, monkeypatch):
        """The Laplacian object itself reaches LAPACK on both paths: no
        checked, cast or symmetrized copy."""
        seen = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, real=real: seen.append(a) or real(a))
        rng = np.random.default_rng(3)
        lap = laplacian(build_graph(FactorTable(rng.normal(size=(6, 2)), ("a", "b")), 2))
        symmetric_eigen(lap)
        symmetric_eigen(lap, vectors=False)
        assert seen[0] is lap and seen[1] is lap


class TestSignConvention:
    def test_largest_entry_positive(self):
        v = np.array([[0.8, -0.3], [-0.6, 0.7]])
        fixed = fix_column_signs(v.copy())
        for j in range(2):
            lead = np.argmax(np.abs(fixed[:, j]))
            assert fixed[lead, j] > 0

    def test_leaves_argument_unchanged(self):
        v = np.array([[0.8, -0.3], [-0.6, -0.7]])
        before = v.copy()
        fixed = fix_column_signs(v)
        assert np.array_equal(v, before)
        assert fixed is not v and np.array_equal(fixed, [[0.8, 0.3], [-0.6, 0.7]])

    def test_tie_breaks_to_lowest_index(self):
        v = np.array([[-0.5], [0.5]])
        fixed = fix_column_signs(v)
        assert fixed[0, 0] == 0.5 and fixed[1, 0] == -0.5

    def test_zeros_come_out_positive(self):
        # the first column is flipped, the second kept and the third is zero
        v = np.array([[0.0, -0.0, -0.0], [-0.8, 0.6, 0.0], [0.6, 0.0, -0.0]])
        fixed = fix_column_signs(v)
        assert np.array_equal(fixed, [[0.0, 0.0, 0.0], [0.8, 0.6, 0.0], [-0.6, 0.0, 0.0]])
        assert not np.signbit(fixed[fixed == 0.0]).any()
