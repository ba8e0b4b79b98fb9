"""Validated dense symmetric eigendecomposition.

Matrices are plain float64 numpy arrays (row-major); vectors are 1-D arrays.

`symmetric_eigen` checks its input (square, finite, symmetric to
SYMMETRY_TOL), averages it with its transpose unless it is already exactly
symmetric (a graph Laplacian is, so it reaches LAPACK bit for bit) and hands
it to numpy's LAPACK routine `dsyevd`. `eigh` asks it for eigenvectors too
(divide and conquer); with `vectors=False`, `eigvalsh` asks for eigenvalues
only, which skips building the vectors and costs about half as much.
Eigenvector signs follow `fix_column_signs`'s rule, so the output depends
only on the input bits, the path taken, and the LAPACK build and its thread
count.
The two paths finish the tridiagonal problem with different algorithms, so
their eigenvalues agree to rounding, not bit for bit. The eigenvectors are
orthonormal to a few units of rounding. Eigenvalues carry an absolute error
of about ||m|| times machine epsilon, so those far below ||m|| lose relative
accuracy; `factor_graph.spectral_basis` therefore deflates the Laplacian's
null space exactly instead of trusting its near-zero eigenvectors.

Memory: the symmetry check compares m with its transpose exactly (one boolean
array) and computes max |m - m^T| only when that fails. The eigenvalues-only
path then allocates no n x n float array of its own; the eigenvector path
allocates |v| once for the sign rule and flips LAPACK's fresh output in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

SYMMETRY_TOL = 1e-10


class ConvergenceError(NumericalError):
    """LAPACK's eigensolver reported that it did not converge."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a symmetric matrix.

    `eigenvalues` is sorted ascending; `eigenvectors[:, k]` is the unit-norm
    eigenvector paired with `eigenvalues[k]`, sign-fixed so that the entry of
    largest magnitude is positive (ties broken by lowest index).
    `eigenvectors` is None when the solve was asked for eigenvalues only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


def as_square_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def _column_signs(v: np.ndarray) -> np.ndarray:
    """+1 or -1 per column of a non-empty `v`: the sign of its
    largest-magnitude entry, +1 for a zero column.

    |v| is laid out column by column so that argmax scans contiguous rows
    instead of copying a transposed |v| first."""
    lead = np.argmax(np.abs(v.T, order="C"), axis=1)
    signs = np.sign(v[lead, np.arange(v.shape[1])])
    signs[signs == 0.0] = 1.0
    return signs


def fix_column_signs(v: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    np.argmax returns the first maximum, which implements the tie rule
    (lowest index wins). Makes eigenvector output reproducible across runs.
    Returns a new array; `v` is not changed.
    """
    if v.size == 0:
        return v
    return v * _column_signs(v)


def symmetric_eigen(m, vectors: bool = True) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK `dsyevd`, or its
    eigenvalues alone (`eigvalsh`, `eigenvectors` None) when `vectors` is
    False.

    Eigenvalues come back ascending. Deterministic for identical input bits
    at a fixed BLAS thread count; across thread counts, and between the
    two paths, results agree to rounding error.

    Raises ValueError for empty, non-square, non-finite or asymmetric input
    and ConvergenceError if LAPACK reports a failure, on both paths.
    """
    m = as_square_matrix(m)
    if m.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.array_equal(m, m.T):
        asym = float(np.max(np.abs(m - m.T)))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"matrix is not symmetric: max |m - m^T| = {asym:.3e}")
        m = (m + m.T) / 2.0
    try:
        if not vectors:
            return EigenDecomposition(np.linalg.eigvalsh(m), None)
        eigenvalues, eigenvectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from None
    # LAPACK's output is a fresh array, so its signs are fixed in place.
    eigenvectors *= _column_signs(eigenvectors)
    return EigenDecomposition(eigenvalues, eigenvectors)
