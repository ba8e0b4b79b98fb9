import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specweight.errors import DataError
from specweight.factor_graph import (
    NULL_SPACE_TOL,
    FactorTable,
    basis_from_factors,
    build_graph,
    choose_m,
    connected_components,
    laplacian,
    select_m_changepoint,
    spectral_basis,
    standardize,
    symmetric_eigen,
)


def table(values, names=None):
    values = np.asarray(values, dtype=float)
    names = names or tuple(f"f{j}" for j in range(values.shape[1]))
    return FactorTable(values, names)


class TestStandardize:
    def test_two_point_column_population_std(self):
        # mean 2, population std 1: z-scores are exactly -1 and +1
        out = standardize(table([[1.0], [3.0]]))
        assert np.allclose(out.values, [[-1.0], [1.0]], atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        out = standardize(table([[5.0], [5.0], [5.0]]))
        assert np.array_equal(out.values, np.zeros((3, 1)))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        once = standardize(table(rng.normal(2.0, 3.0, size=(25, 4))))
        twice = standardize(once)
        assert np.allclose(twice.values, once.values, atol=1e-9)

    def test_rejects_single_sample(self):
        with pytest.raises(DataError):
            standardize(table([[1.0, 2.0]]))

    @pytest.mark.parametrize("column", [
        [1e308, -1e308, 1e308, 0.0],   # the variance overflows
        [1.5e308, 1.5e308, 1.6e308],   # the mean overflows
    ])
    def test_overflowing_column_is_data_error(self, column):
        t = table(np.column_stack([np.arange(len(column), dtype=float), column]),
                  names=("age", "g"))
        with pytest.raises(DataError, match="factor 'g': its mean or variance overflows"):
            standardize(t)

    def test_large_finite_column_still_standardizes(self):
        out = standardize(table([[1e150], [-1e150], [1e150], [0.0]]))
        assert np.all(np.isfinite(out.values))
        assert abs(out.values.std() - 1.0) < 1e-12

    def test_constant_column_is_exact_positive_zero(self):
        """np.mean of [c] * 5 misses this c by an ulp, so the population std
        is tiny but positive; the column must still map to +0.0, and a
        varying column must keep the bits of (x - mean) / std."""
        constant = [51.560812845968115] * 5
        varying = np.array([1.0, 2.5, -3.0, 0.25, 7.0])
        out = standardize(table(np.column_stack([constant, varying]))).values
        assert np.all(out[:, 0] == 0.0) and not np.any(np.signbit(out[:, 0]))
        want = (varying - varying.mean()) / varying.std()
        assert out[:, 1].tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=40))
    @example([51.560812845968115] * 5)
    def test_moments(self, column):
        out = standardize(table(np.array(column)[:, None]))
        z = out.values[:, 0]
        assert abs(z.mean()) < 1e-9
        if len(set(column)) == 1:  # np.std of equal values can be an ulp above 0
            assert not np.any(z)
        elif np.std(column) > 0:
            assert abs(z.std() - 1.0) < 1e-9


class TestBuildGraph:
    def test_identical_vectors_weight_one(self):
        g = build_graph(table([[0.0, 0.0], [0.0, 0.0], [3.0, 3.0]]), k=1)
        assert g.adjacency[0, 1] == 1.0
        assert g.adjacency[1, 0] == 1.0

    def test_unit_distance_weight_half(self):
        g = build_graph(table([[0.0], [1.0]]), k=1)
        assert g.adjacency[0, 1] == 0.5

    def test_non_neighbors_zero(self):
        g = build_graph(table([[0.0], [1.0], [10.0], [11.0]]), k=1)
        assert g.adjacency[0, 2] == 0.0
        assert g.adjacency[0, 3] == 0.0
        assert g.adjacency[0, 1] > 0.0
        assert g.adjacency[2, 3] > 0.0

    def test_zero_diagonal_and_exact_symmetry(self):
        rng = np.random.default_rng(1)
        g = build_graph(table(rng.normal(size=(30, 3))), k=5)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert np.all(np.diag(g.adjacency) == 0.0)
        assert np.all(g.adjacency >= 0.0) and np.all(g.adjacency <= 1.0)

    def test_each_row_has_at_least_k_edges(self):
        rng = np.random.default_rng(2)
        g = build_graph(table(rng.normal(size=(25, 2))), k=4)
        assert np.all((g.adjacency > 0).sum(axis=1) >= 4)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        t = table(rng.normal(size=(20, 3)))
        small = build_graph(t, k=3).adjacency
        large = build_graph(t, k=7).adjacency
        present = small > 0
        assert np.all(large[present] == small[present])

    def test_neighbor_tie_breaks_to_lower_index(self):
        # samples 1 and 2 are both at distance 1 from sample 0
        g = build_graph(table([[0.0], [1.0], [-1.0], [9.0]]), k=1)
        assert g.adjacency[0, 1] > 0.0

    def test_k_out_of_range(self):
        t = table([[0.0], [1.0], [2.0]])
        for k in (0, 3, 7):
            with pytest.raises(DataError):
                build_graph(t, k)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(5, 25), st.integers(1, 3))
    def test_invariants_on_random_tables(self, seed, n, d):
        rng = np.random.default_rng(seed)
        factors = standardize(table(rng.normal(size=(n, d))))
        k = int(rng.integers(1, n))
        a = build_graph(factors, k=k).adjacency
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)
        assert np.all((a >= 0.0) & (a <= 1.0))
        assert np.all((a > 0).sum(axis=1) >= k)

    @staticmethod
    def argsort_adjacency(factors, k):
        """Reference: the adjacency with each row's k nearest picked by a full
        stable argsort, ties to the lower index."""
        x = factors.values
        n = x.shape[0]
        diff = x[:, None, :] - x[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        ranked = d2.copy()
        np.fill_diagonal(ranked, np.inf)
        neighbor_of = np.zeros((n, n), dtype=bool)
        nearest = np.argsort(ranked, axis=1, kind="stable")[:, :k]
        neighbor_of[np.arange(n)[:, None], nearest] = True
        linked = neighbor_of | neighbor_of.T
        adjacency = np.where(linked, 1.0 / (d2 + 1.0), 0.0)
        np.fill_diagonal(adjacency, 0.0)
        return adjacency

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 30).flatmap(lambda n: st.tuples(
               st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                        min_size=n, max_size=n),
               st.sampled_from([1, n - 1]) | st.integers(1, n - 1))))
    def test_matches_stable_argsort_on_ties(self, rows_and_k):
        """Small-integer tables, full of duplicate rows and equal distances:
        the partition-based selection keeps exactly the stable argsort's
        neighbors, so the adjacency is bit-identical."""
        rows, k = rows_and_k
        t = table(rows)
        got = build_graph(t, k).adjacency
        assert got.tobytes() == self.argsort_adjacency(t, k).tobytes()

    def check_against_reference(self, t, k):
        """The adjacency is bit-identical to the full-einsum reference, and
        the Laplacian to Deg - A with no -0.0 off the diagonal."""
        g = build_graph(t, k)
        assert g.adjacency.tobytes() == self.argsort_adjacency(t, k).tobytes()
        lap = laplacian(g)
        assert lap.tobytes() == (np.diag(g.degree) - g.adjacency).tobytes()
        assert not np.signbit(lap[lap == 0.0]).any()

    @staticmethod
    def random_table(rng, n, f, ties):
        if ties:
            return table(rng.integers(-2, 3, size=(n, f)))
        return standardize(table(rng.normal(size=(n, f))))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([63, 64, 65, 127, 128, 129, 400]) | st.integers(2, 150),
           st.integers(1, 17), st.booleans(), st.floats(0.0, 1.0))
    def test_matches_stable_argsort_across_row_blocks(self, seed, n, f, ties, where):
        """Tables longer than one distance row block, some ending in a partial
        block, with 1-17 columns (einsum's summation order matters from 3):
        build_graph computes each block's distances at and right of the
        diagonal and mirrors them below it, and must match the reference,
        which computes every pair."""
        rng = np.random.default_rng(seed)
        k = min(max(1, round(where * (n - 1))), n - 1)
        self.check_against_reference(self.random_table(rng, n, f, ties), k)

    @pytest.mark.parametrize("ties", [True, False], ids=["ties", "normal"])
    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 400])
    def test_mirrored_distances_at_block_edges(self, n, ties):
        rng = np.random.default_rng(n)
        for f in (1, 2, 3, 7, 17):
            t = self.random_table(rng, n, f, ties)
            for k in (1, n // 3, n - 1):
                self.check_against_reference(t, k)


class TestLaplacian:
    def test_two_node(self):
        lap = laplacian(build_graph(table([[0.0], [0.0]]), k=1))
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_weighted_two_node(self):
        lap = laplacian(build_graph(table([[0.0], [1.0]]), k=1))
        assert np.array_equal(lap, [[0.5, -0.5], [-0.5, 0.5]])

    def test_rows_sum_to_zero_and_psd(self):
        rng = np.random.default_rng(4)
        lap = laplacian(build_graph(table(rng.normal(size=(20, 3))), k=4))
        assert np.max(np.abs(lap.sum(axis=1))) < 1e-12
        assert np.min(symmetric_eigen(lap)[0]) > -1e-10


class TestPeakMemory:
    """Peak traced bytes of each step of graph -> Laplacian -> eigensolve on
    400 samples and 3 factors, in units of one n x n float64 array.
    tracemalloc sees numpy's array buffers but not LAPACK's workspace."""

    n = 400

    @pytest.fixture(scope="class")
    def chain(self):
        rng = np.random.default_rng(5)
        t = standardize(table(rng.normal(size=(self.n, 3))))
        g = build_graph(t, 50)
        return t, g, laplacian(g)

    def peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / (8 * self.n ** 2)
        finally:
            tracemalloc.stop()

    def test_build_graph_at_most_three_arrays(self, chain):
        # d2, the work buffer that becomes the adjacency, one row block of
        # differences and the boolean masks
        assert self.peak(lambda: build_graph(chain[0], 50)) <= 3.0

    def test_laplacian_one_array(self, chain):
        assert self.peak(lambda: laplacian(chain[1])) <= 1.1

    def test_eigenvalues_only_no_float_copy(self, chain):
        assert self.peak(lambda: symmetric_eigen(chain[2], vectors=False)) <= 0.5

    def test_eigenvectors_signed_in_place(self, chain):
        # LAPACK's output; the sign rule runs later, on the m basis columns
        assert self.peak(lambda: symmetric_eigen(chain[2])) <= 2.5


class TestSpectralBasis:
    def test_two_node_single_basis(self):
        g = build_graph(table([[0.0], [1.0]]), k=1)
        lap = laplacian(g)
        lam, v = symmetric_eigen(lap)
        basis = spectral_basis(v[:, 1:], lam[1:], connected_components(lap))
        assert np.allclose(basis.basis[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)
        assert np.allclose(basis.eigenvalues, [2 * g.adjacency[0, 1]], atol=1e-12)

    def test_m_zero_empty(self):
        lap = laplacian(build_graph(table([[0.0], [1.0]]), k=1))
        lam, v = symmetric_eigen(lap)
        basis = spectral_basis(v[:, 1:1], lam[1:1], connected_components(lap))
        assert basis.m_count == 0 and basis.basis.shape == (2, 0)

    def test_disconnected_two_null_eigenvalues(self):
        # two far clusters, k=1: block-diagonal Laplacian, one null mode each
        t = table([[0.0], [1.0], [100.0], [101.0]])
        lap = laplacian(build_graph(t, k=1))
        lam, v = symmetric_eigen(lap)
        oracle = np.linalg.eigvalsh(lap)  # independent eigenstructure check
        assert np.allclose(lam, oracle, atol=1e-10)
        assert np.sum(lam <= 1e-8) == 2
        basis = spectral_basis(v[:, 2:], lam[2:], connected_components(lap))
        assert basis.m_count == 2
        assert np.all(basis.eigenvalues > 1e-8)
        assert np.max(np.abs(basis.basis.sum(axis=0))) < 1e-12

    def test_m_exceeding_available_raises(self):
        lap = laplacian(build_graph(table([[0.0], [1.0], [2.0]]), k=1))
        lam, _ = symmetric_eigen(lap, vectors=False)
        with pytest.raises(DataError, match="requested 5 eigenbases but only 2 non-null"):
            choose_m(lam[lam > NULL_SPACE_TOL], 5)

    def test_applied_by_spectral_basis(self):
        # three far clusters at k=1: the eigenvectors of one cluster are
        # exact zeros on the others, and a column flipped by the sign rule
        # must still write them as +0.0
        t = table([[0.0], [1.0], [2.5], [100.0], [101.0], [102.5], [200.0], [201.0]])
        basis, _ = basis_from_factors(t, k=1, m=4)
        e = basis.basis
        lead = np.argmax(np.abs(e), axis=0)
        assert np.all(e[lead, np.arange(4)] > 0)
        zeros = e[e == 0.0]
        assert zeros.size > 0 and not np.signbit(zeros).any()

    def test_orthonormal_zero_sum(self, small_basis):
        basis, _ = small_basis
        e = basis.basis
        assert np.max(np.abs(e.T @ e - np.eye(basis.m_count))) < 1e-8
        assert np.max(np.abs(e.sum(axis=0))) < 1e-8

    def test_eigen_residuals(self, small_basis, random_factor_table):
        basis, info = small_basis
        lap = info["laplacian"]
        resid = lap @ basis.basis - basis.basis * basis.eigenvalues
        assert np.max(np.abs(resid)) < 1e-7

    def test_component_count_matches_null_count(self):
        # three clusters -> three components -> exactly three null eigenvalues
        t = table([[0.0], [1.0], [50.0], [51.0], [100.0], [101.0]])
        g = build_graph(t, k=1)
        labels = connected_components(g.adjacency > 0)
        lap = laplacian(g)
        lam, _ = symmetric_eigen(lap)
        assert labels.max() + 1 == 3
        assert np.sum(lam <= 1e-8) == 3

    def test_components_labelled_from_adjacency(self):
        # two clusters: labels numbered by lowest member, the Laplacian's
        # nonzero pattern gives the same labels, and basis_from_factors
        # reports the labelled count next to the null-eigenvalue count
        t = table([[0.0], [100.0], [1.0], [101.0], [2.0]])
        g = build_graph(t, k=1)
        labels = connected_components(g.adjacency)
        assert labels.tolist() == [0, 1, 0, 1, 0]
        assert np.array_equal(connected_components(laplacian(g)), labels)
        basis, info = basis_from_factors(t, k=1, m=2)
        assert info["n_components"] == 2 and info["n_null"] == 2
        assert np.max(np.abs(basis.basis[labels == 0].sum(axis=0))) < 1e-12
        assert np.max(np.abs(basis.basis[labels == 1].sum(axis=0))) < 1e-12

    def test_connected_components_rejects_non_square(self):
        with pytest.raises(ValueError):
            connected_components(np.ones((2, 3)))

    def test_permutation_consistency(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(18, 3))
        basis, _ = basis_from_factors(table(values), k=4, m=5)
        perm = rng.permutation(18)
        basis_p, _ = basis_from_factors(table(values[perm]), k=4, m=5)
        undone = basis_p.basis[np.argsort(perm)]
        assert np.allclose(basis_p.eigenvalues, basis.eigenvalues, atol=1e-9)
        for j in range(5):
            col, ref = undone[:, j], basis.basis[:, j]
            assert np.allclose(col, ref, atol=1e-7) or np.allclose(col, -ref, atol=1e-7)


class TestValuesOnlyBasis:
    """basis_from_factors(..., vectors=False) against the eigenvector path."""

    @pytest.mark.parametrize("m", ["auto", 0, 3, 7])
    def test_same_counts_and_basis_eigenvalues(self, m):
        # three far clusters: three components, so three null eigenvalues
        rng = np.random.default_rng(21)
        t = table(np.vstack([rng.normal(size=(12, 2)) + 100.0 * c for c in range(3)]))
        basis, full = basis_from_factors(t, k=4, m=m)
        none, values = basis_from_factors(t, k=4, m=m, vectors=False)
        assert none is None
        for key in ("m_used", "n_null", "n_components"):
            assert values[key] == full[key], key
        assert full["n_components"] == 3 and full["m_used"] == basis.m_count
        assert np.array_equal(full["basis_eigenvalues"], basis.eigenvalues)
        scale = np.max(full["eigenvalues"])
        assert np.max(np.abs(values["eigenvalues"] - full["eigenvalues"])) <= 1e-12 * scale
        assert values["basis_eigenvalues"].shape == basis.eigenvalues.shape
        assert np.allclose(values["basis_eigenvalues"], basis.eigenvalues,
                           rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("values, m, message", [
        ([0.5], "auto", "m='auto': change-point selection needs at least 2"),
        ([0.5, 1.0], 3, "requested 3 eigenbases but only 2 non-null"),
    ])
    def test_choose_m_data_errors(self, values, m, message):
        with pytest.raises(DataError, match=message):
            choose_m(np.array(values), m)

    @pytest.mark.parametrize("m, message", [
        (-1, "m must be >= 0"), (2.0, "m must be an integer or 'auto'"),
        (True, "m must be an integer or 'auto'")])
    def test_choose_m_argument_errors(self, m, message):
        with pytest.raises(ValueError, match=message):
            choose_m(np.array([0.5, 1.0]), m)

    def test_choose_m_lets_a_selection_fault_propagate(self, monkeypatch):
        """Only too few eigenvalues is a DataError; a ValueError from inside
        select_m_changepoint is a fault of the program and is not re-labelled."""
        import specweight.factor_graph as fg

        def fail(values):
            raise ValueError("fault inside the selection")

        monkeypatch.setattr(fg, "select_m_changepoint", fail)
        with pytest.raises(ValueError, match="fault inside the selection"):
            choose_m(np.array([0.5, 1.0]), "auto")

    @pytest.mark.parametrize("values", [np.zeros((6, 0)), [[3.0, -1.0]] * 6],
                             ids=["no-column", "constant-columns"])
    @pytest.mark.parametrize("vectors", [True, False])
    def test_no_varying_factor_is_data_error(self, values, vectors):
        """With every distance 0 the neighbours would be the first rows."""
        with pytest.raises(DataError, match="no factor column varies across the 6 samples"):
            basis_from_factors(table(values), k=2, m=1, vectors=vectors)

    def test_explicit_m_too_large_on_both_paths(self):
        t = table([[0.0], [1.0], [2.0]])
        for vectors in (True, False):
            with pytest.raises(DataError, match="requested 5 eigenbases but only 2 non-null"):
                basis_from_factors(t, k=1, m=5, vectors=vectors)


class TestSelectM:
    def test_dominant_gap(self):
        assert select_m_changepoint([0.10, 0.12, 0.13, 0.90, 1.00]) == 3

    def test_geometric_clamps_to_two(self):
        assert select_m_changepoint([1.0, 2.0, 4.0, 8.0]) == 2

    def test_needs_two_eigenvalues(self):
        with pytest.raises(ValueError):
            select_m_changepoint([0.5])

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            select_m_changepoint([2.0, 1.0])

    def test_caps_at_fifty(self):
        lam = np.concatenate([np.linspace(1, 2, 80), [1000.0]])
        assert select_m_changepoint(lam) <= 50

    def test_explicit_override_accepted(self):
        # configured basis sizes win over the heuristic
        rng = np.random.default_rng(12)
        t = table(rng.normal(size=(40, 3)))
        for m in (13, 7):
            basis, info = basis_from_factors(t, k=6, m=m)
            assert basis.m_count == m

    def test_auto_dispatch(self):
        rng = np.random.default_rng(13)
        basis, info = basis_from_factors(table(rng.normal(size=(30, 3))), k=5, m="auto")
        assert 2 <= basis.m_count <= 50
        nonnull = info["eigenvalues"][info["eigenvalues"] > 1e-8]
        assert basis.m_count == select_m_changepoint(nonnull)
