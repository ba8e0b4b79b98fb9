import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specweight.factor_graph import SpectralBasis
from specweight.weight_field import WeightField, grad_a, negativity_penalty


def single_column_basis():
    e = np.array([[1 / np.sqrt(2)], [-1 / np.sqrt(2)]])
    return SpectralBasis(e, np.array([1.0]))


class TestWeights:
    def test_zero_coefficients_give_centering(self, small_basis):
        basis, _ = small_basis
        fld = WeightField(0.65, np.zeros(basis.m_count), basis)
        assert np.all(fld.weights() == 0.65)

    def test_single_column_hand_case(self):
        fld = WeightField(1.0, np.array([np.sqrt(2.0)]), single_column_basis())
        assert np.allclose(fld.weights(), [2.0, 0.0], atol=1e-12)

    def test_row_subset(self, small_basis):
        basis, _ = small_basis
        rng = np.random.default_rng(0)
        fld = WeightField(0.5, rng.normal(size=basis.m_count), basis)
        rows = np.array([3, 7, 11])
        assert np.allclose(fld.weights(rows), fld.weights()[rows], atol=1e-12)
        # repeated identical calls are bit-identical
        assert np.array_equal(fld.weights(rows), fld.weights(rows))

    def test_coefficient_length_enforced(self, small_basis):
        basis, _ = small_basis
        with pytest.raises(ValueError):
            WeightField(1.0, np.zeros(basis.m_count + 1), basis)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-2, 2), st.integers(0, 2 ** 32 - 1))
    def test_exact_centering(self, small_basis, c, seed):
        basis, _ = small_basis
        a = np.random.default_rng(seed).normal(size=basis.m_count)
        w = WeightField(c, a, basis).weights()
        assert abs(w.sum() - basis.n_samples * c) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-2, 2), st.integers(0, 2 ** 32 - 1))
    def test_smoothness_identity(self, small_basis, c, seed):
        # deviation energy in the graph metric equals sum of lambda_j a_j^2
        basis, info = small_basis
        a = np.random.default_rng(seed).normal(size=basis.m_count)
        w = WeightField(c, a, basis).weights()
        dev = w - c
        quad = dev @ info["laplacian"] @ dev
        assert abs(quad - np.sum(basis.eigenvalues * a * a)) < 1e-8


class TestNegativityPenalty:
    def test_all_positive(self):
        assert negativity_penalty([0.3, 0.7]) == 0.0

    def test_one_negative(self):
        assert negativity_penalty([-0.2, 0.5]) == pytest.approx(0.2)

    def test_all_negative(self):
        assert negativity_penalty([-0.1, -0.4]) == pytest.approx(0.5)


class TestGradA:
    def test_zero_losses_positive_weights(self, small_basis):
        basis, _ = small_basis
        fld = WeightField(1.0, np.zeros(basis.m_count), basis)
        g = grad_a(fld, np.zeros(basis.n_samples), np.arange(basis.n_samples))
        assert np.array_equal(g, np.zeros(basis.m_count))

    def test_single_row_product(self):
        e = np.array([[0.5], [-0.5]])
        fld = WeightField(1.0, np.zeros(1), SpectralBasis(e, np.array([1.0])))
        g = grad_a(fld, np.array([2.0]), rows=np.array([0]))
        assert np.allclose(g, [1.0], atol=1e-15)

    def test_hinge_indicator(self):
        e = np.array([[0.5], [-0.5]])
        # c = -1: both weights negative, indicator subtracts 1 from each loss
        fld = WeightField(-1.0, np.zeros(1), SpectralBasis(e, np.array([1.0])))
        g = grad_a(fld, np.array([2.0, 3.0]), np.arange(2))
        assert np.allclose(g, [0.5 * (2.0 - 1.0) - 0.5 * (3.0 - 1.0)], atol=1e-15)

    def test_length_mismatch(self, small_basis):
        basis, _ = small_basis
        fld = WeightField(1.0, np.zeros(basis.m_count), basis)
        with pytest.raises(ValueError):
            grad_a(fld, np.zeros(3), rows=np.array([0, 1]))

    def test_matches_central_differences(self, small_basis):
        # independent oracle: central differences of the summed objective
        basis, _ = small_basis
        rng = np.random.default_rng(8)
        a = rng.normal(size=basis.m_count) * 0.5
        c = 0.3
        losses = rng.uniform(0.1, 2.0, size=basis.n_samples)
        fld = WeightField(c, a, basis)
        assert np.min(np.abs(fld.weights())) > 1e-3  # stay away from the hinge kink

        def objective(coeffs):
            w = c + basis.basis @ coeffs
            return float(w @ losses + negativity_penalty(w))

        h = 1e-6
        fd = np.empty(basis.m_count)
        for j in range(basis.m_count):
            up, down = a.copy(), a.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (objective(up) - objective(down)) / (2 * h)
        g = grad_a(fld, losses, np.arange(basis.n_samples))
        rel = np.abs(g - fd) / np.maximum(np.abs(g) + np.abs(fd), 1e-9)
        assert np.max(rel) < 1e-6
