"""Per-sample loss weights as a learnable combination of graph eigenbases.

A weight field is w = c + E a: a centering constant plus a low-frequency
deviation expressed in the spectral basis of the factor graph. Because every
basis column sums to zero, the mean weight over the whole cohort is exactly c
for any coefficient vector, and weights for held-out samples follow from the
same formula without touching their features or labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factor_graph import SpectralBasis


@dataclass
class WeightField:
    """Centering constant and learnable coefficients over a spectral basis.

    `coeffs_a` is the single mutable piece of training state; the centering
    constant and the basis are fixed for the lifetime of the field. Rows are
    global sample indices.
    """

    centering_c: float
    coeffs_a: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        self.coeffs_a = np.asarray(self.coeffs_a, dtype=np.float64)
        if self.coeffs_a.shape != (self.basis.m_count,):
            raise ValueError(
                f"coefficient vector of length {self.coeffs_a.shape} for a "
                f"{self.basis.m_count}-column basis"
            )

    def weights(self, rows=None) -> np.ndarray:
        """w_i = c + sum_j E_ij a_j for the requested rows (all by default).

        The same formula serves training rows during optimization and test
        rows at inference time.
        """
        e = self.basis.basis if rows is None else self.basis.basis[rows]
        return self.centering_c + e @ self.coeffs_a


def negativity_penalty(weights) -> float:
    """Hinge penalty sum(max(0, -w)) discouraging negative sample weights."""
    w = np.asarray(weights, dtype=np.float64)
    return float(np.maximum(0.0, -w).sum())


def grad_a(field: WeightField, per_sample_losses, rows) -> np.ndarray:
    """Gradient of the weighted objective with respect to the coefficients.

    The objective over the given rows is sum_i w_i l_i + sum_i max(0, -w_i)
    with the losses l_i treated as constants, so d/da_j = sum_i e_ij (l_i - t_i)
    where t_i is 1 where w_i < 0 and 0 elsewhere (hinge subgradient at 0 is 0).
    """
    rows = np.asarray(rows, dtype=np.intp)
    losses = np.asarray(per_sample_losses, dtype=np.float64)
    if losses.shape != (rows.shape[0],):
        raise ValueError(f"{losses.shape[0]} losses for {rows.shape[0]} rows")
    e = field.basis.basis[rows]
    w = field.centering_c + e @ field.coeffs_a
    return e.T @ (losses - (w < 0.0).astype(np.float64))
