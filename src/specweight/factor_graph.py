"""Factor-similarity graph over all samples and its Laplacian eigenbasis.

Auxiliary factors (demographics, genetics, environment scores) are z-scored
over the full cohort, connected by a mutual-kNN union rule with inverse
squared-distance edge weights, and the low-frequency eigenvectors of the
unnormalized graph Laplacian become the basis in which per-sample weights are
later parameterized. The graph covers training and testing samples alike; the
construction never looks at model inputs or labels.

Memory: `build_graph` holds at most two n x n float arrays, the squared
distances and one work buffer that is partitioned for the k-th distance and
then becomes the adjacency, plus one (rows, n, n_factors) block of
differences and n x n boolean masks. `laplacian` allocates only the array it
returns. Every fresh page of an array faults on first touch; on a 2-vCPU
host those faults cost more, at n = 400, than the arithmetic done on the
array. The squared distances stay on one
einsum call per row block because einsum does not sum factors left to right
(with 3 factors it adds (0 + 2) + 1): a column-by-column sum or a Gram-matrix
formula changes their bits, and with them the adjacency and every output
downstream. Each block computes only the pairs at and right of the diagonal
and copies their transpose below it. That copy is exact: IEEE subtraction is
antisymmetric, so x_j - x_i is -(x_i - x_j) bit for bit, its square is the
same, and einsum sums each pair's factors in the same order either way.
The differences are filled one factor at a time: subtracting all factors in
one broadcast runs numpy's inner loop over the n_factors of one pair, which
took longer than the einsum (1.6 against 0.8 ms at n = 400, f = 3, on a
2-vCPU host).

The eigensolve is numpy's LAPACK routine `dsyevd`, on the Laplacian as
`laplacian` builds it: finite and exactly symmetric, so no check or
symmetrizing copy stands between the two, and the solve allocates nothing
beyond LAPACK's output. `eigh` asks for eigenvectors too (divide and
conquer); `eigvalsh` asks for eigenvalues only, which skips building the
vectors and costs about half as much. The two paths finish the tridiagonal
problem with different algorithms, so their eigenvalues agree to rounding,
not bit for bit. Eigenvalues carry an absolute error of about ||L|| times
machine epsilon, so those far below ||L|| lose relative accuracy. The null
space of a graph Laplacian is spanned by the indicators of its connected
components, so `spectral_basis` deflates it exactly with them instead of
trusting the near-zero eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

NULL_SPACE_TOL = 1e-8
M_SELECT_CAP = 50
_ROW_BLOCK = 64  # rows of d2 per (rows, n, n_factors) difference block


@dataclass(frozen=True)
class FactorTable:
    """Per-sample auxiliary factor values, one row per sample."""

    values: np.ndarray
    factor_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"factor table must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise DataError("factor table contains missing or non-finite values")
        if len(self.factor_names) != values.shape[1]:
            raise DataError(
                f"{len(self.factor_names)} factor names for {values.shape[1]} columns"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "factor_names", tuple(self.factor_names))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class FactorGraph:
    """Symmetric kNN similarity graph with edge weights in [0, 1]."""

    adjacency: np.ndarray

    @property
    def degree(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


@dataclass(frozen=True)
class SpectralBasis:
    """First non-null Laplacian eigenvectors, column-orthonormal and zero-sum."""

    basis: np.ndarray        # (n_samples, m_count)
    eigenvalues: np.ndarray  # (m_count,) ascending, all above NULL_SPACE_TOL

    @property
    def n_samples(self) -> int:
        return self.basis.shape[0]

    @property
    def m_count(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def empty(n_samples: int) -> "SpectralBasis":
        return SpectralBasis(np.zeros((n_samples, 0)), np.zeros(0))


def standardize(raw: FactorTable) -> FactorTable:
    """Z-score each factor column over all samples (population variance).

    Computed over the full cohort in one pass, so the graph does not depend on
    any train/test split. Constant columns carry no similarity information and
    map to exact +0.0, even where their mean misses their value by an ulp. A
    column whose mean or variance overflows float64 is a DataError naming the
    factor, not a column of zeros.
    """
    if raw.n_samples < 2:
        raise DataError("standardization needs at least 2 samples")
    values = raw.values
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean(axis=0)
        std = values.std(axis=0)  # ddof=0
    overflow = ~(np.isfinite(mean) & np.isfinite(std))
    if overflow.any():
        name = raw.factor_names[int(np.argmax(overflow))]
        raise DataError(f"factor {name!r}: its mean or variance overflows float64; "
                        "rescale the column")
    centered = values - mean
    varies = np.any(values != values[0], axis=0) & (std > 0.0)
    out = np.divide(centered, std, out=np.zeros_like(centered), where=varies)
    return FactorTable(out, raw.factor_names)


def build_graph(factors: FactorTable, k: int) -> FactorGraph:
    """Mutual-union kNN graph with weights 1 / (squared distance + 1).

    An edge (i, j) exists when i is among j's k nearest neighbors or vice
    versa, nearness measured by squared Euclidean distance in standardized
    factor space. Neighbor ties break toward the lower sample index;
    self-edges are excluded.
    """
    n = factors.n_samples
    if n < 2:
        raise DataError("graph construction needs at least 2 samples")
    if not 1 <= k < n:
        raise DataError(f"k_neighbors must be in [1, {n - 1}], got {k}")
    x = factors.values
    d2 = np.empty((n, n))
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        diff = np.empty((stop - start, n - start, x.shape[1]))
        for j in range(x.shape[1]):
            np.subtract(x[start:stop, j, None], x[None, start:, j], out=diff[:, :, j])
        np.einsum("ijk,ijk->ij", diff, diff, out=d2[start:stop, start:])
        d2[stop:, start:stop] = d2[start:stop, stop:].T
    del diff
    np.fill_diagonal(d2, np.inf)

    # The k nearest of each row, as a stable argsort would rank them: every
    # entry below the k-th smallest distance, then the entries equal to it in
    # index order until the row has k. Only rows with more than k entries at
    # or below the k-th smallest have ties to break.
    work = d2.copy()
    work.partition(k - 1, axis=1)
    kth = work[:, k - 1:k].copy()
    neighbor_of = d2 <= kth
    crowded = np.flatnonzero(neighbor_of.sum(axis=1) > k)
    if crowded.size:
        ranked, cut = d2[crowded], kth[crowded]
        below = ranked < cut
        tied = ranked == cut
        room = k - below.sum(axis=1, keepdims=True)
        neighbor_of[crowded] = below | (tied & (np.cumsum(tied, axis=1) <= room))
    neighbor_of |= neighbor_of.T

    # The diagonal is inf, so it weighs 1 / inf = 0 whatever the mask says.
    adjacency = np.add(d2, 1.0, out=work)
    np.divide(1.0, adjacency, out=adjacency)
    adjacency *= neighbor_of
    return FactorGraph(adjacency)


def laplacian(g: FactorGraph) -> np.ndarray:
    """Unnormalized Laplacian L = Deg - A (symmetric PSD, L @ 1 = 0).

    Off the diagonal, 0.0 - a is +0.0 where a is 0; np.negative would write
    -0.0 there.
    """
    lap = np.subtract(0.0, g.adjacency)
    np.fill_diagonal(lap, g.degree)
    return lap


def symmetric_eigen(lap: np.ndarray, vectors: bool = True):
    """(eigenvalues, eigenvectors) of the Laplacian `lap` by `eigh`, or
    (eigenvalues, None) by `eigvalsh` when `vectors` is False.

    Eigenvalues come back ascending, with unit eigenvectors as the columns in
    LAPACK's signs. Deterministic for identical input bits at a fixed BLAS
    thread count. A LAPACK failure is a NumericalError on both paths.
    """
    try:
        if vectors:
            return np.linalg.eigh(lap)
        return np.linalg.eigvalsh(lap), None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from None


def connected_components(adjacency: np.ndarray) -> np.ndarray:
    """Component label per node from the nonzero pattern, numbered in order of
    each component's lowest node. The diagonal is ignored, so a Laplacian
    gives the same labels as its adjacency."""
    linked = np.asarray(adjacency) != 0
    if linked.ndim != 2 or linked.shape[0] != linked.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {linked.shape}")
    n = linked.shape[0]
    labels = np.full(n, -1, dtype=int)
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        # Breadth-first search, one whole frontier per step.
        reached = np.zeros(n, dtype=bool)
        reached[start] = True
        frontier = reached
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~reached
            reached |= frontier
        labels[reached] = current
        current += 1
    return labels


def _component_null_basis(labels: np.ndarray) -> np.ndarray:
    """Orthonormal indicator basis of the Laplacian's exact null space."""
    members = labels[:, None] == np.arange(labels.max() + 1)
    return members / np.sqrt(members.sum(axis=0))


def choose_m(values: np.ndarray, m: int | str = "auto") -> int:
    """Basis size for the ascending non-null eigenvalues `values`.

    m="auto" applies select_m_changepoint and raises DataError when there are
    fewer than 2 values to choose from; so does an explicit m above the number
    of values. A negative or non-integer m is a ValueError.
    """
    if m == "auto":
        if values.shape[0] < 2:
            raise DataError("m='auto': change-point selection needs at least 2 non-null "
                            "eigenvalues; set m explicitly")
        return select_m_changepoint(values)
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ValueError(f"m must be an integer or 'auto', got {m!r}")
    m = int(m)
    if m < 0:
        raise ValueError("m must be >= 0")
    if m > values.shape[0]:
        raise DataError(f"requested {m} eigenbases but only {values.shape[0]} non-null "
                        "eigenpairs exist")
    return m


def fix_column_signs(v: np.ndarray) -> np.ndarray:
    """Copy of `v` with each column flipped so that its largest-magnitude
    entry is positive; `v` is not changed.

    np.argmax returns the first maximum, which implements the tie rule
    (lowest index wins); a zero column is not flipped. The flip alone would
    write an exact zero as -0.0, so 0.0 is added, which changes nothing else.
    """
    lead = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[lead, np.arange(v.shape[1])])
    signs[signs == 0.0] = 1.0
    return v * signs + 0.0


def spectral_basis(vectors: np.ndarray, eigenvalues: np.ndarray,
                   labels: np.ndarray) -> SpectralBasis:
    """Basis from the chosen non-null eigenpairs of a graph Laplacian: the
    columns `vectors` with their `eigenvalues`, and the component labels of
    its graph (`connected_components`).

    The columns are projected against the exact component-indicator null
    space. The eigensolver leaves them orthogonal to it only up to rounding
    error scaled by ||L|| over the smallest retained eigenvalue; the deflation
    pins the zero-column-sum property down to rounding error however small
    that eigenvalue is. The columns are then normalized and sign-fixed.
    """
    if vectors.shape[1] == 0:
        return SpectralBasis.empty(vectors.shape[0])
    # The copy is C order, which the bits of the sums below depend on.
    basis = vectors.copy()
    u0 = _component_null_basis(labels)
    basis -= u0 @ (u0.T @ basis)
    basis /= np.linalg.norm(basis, axis=0)
    return SpectralBasis(fix_column_signs(basis), eigenvalues)


def basis_from_factors(raw: FactorTable, k: int, m: int | str = "auto",
                       vectors: bool = True):
    """Full chain raw factors -> standardized -> graph -> Laplacian -> basis.

    Returns (basis, info) where info carries the pieces reports need: the
    graph, the full eigenvalue spectrum, the number of null eigenvalues, the
    number of connected components (from the graph's edges, labelled once),
    the m that was actually used and the basis eigenvalues.

    With vectors=False the Laplacian is solved for eigenvalues only and no
    basis is built: basis is None, and info is filled from that spectrum,
    which agrees with the full solve's to rounding.

    A table in which no factor varies is a DataError: every distance would be
    0, and each sample's neighbours would be the first rows of the table.
    """
    factors = standardize(raw)
    if not factors.values.any():
        raise DataError(f"no factor column varies across the {raw.n_samples} samples; "
                        "the factor graph needs at least one that does")
    graph = build_graph(factors, k)
    labels = connected_components(graph.adjacency)
    lap = laplacian(graph)
    eigenvalues, eigenvectors = symmetric_eigen(lap, vectors=vectors)
    # Ascending, so the eigenvalues <= NULL_SPACE_TOL (one per connected
    # component) come first and the basis takes the m after them.
    n_null = int(np.count_nonzero(eigenvalues <= NULL_SPACE_TOL))
    m_used = choose_m(eigenvalues[n_null:], m)
    chosen = slice(n_null, n_null + m_used)
    basis = (spectral_basis(eigenvectors[:, chosen], eigenvalues[chosen], labels)
             if vectors else None)
    info = {
        "graph": graph,
        "eigenvalues": eigenvalues,
        "n_null": n_null,
        "n_components": int(labels.max()) + 1,
        "m_used": m_used,
        "basis_eigenvalues": eigenvalues[chosen],
        "laplacian": lap,
    }
    return basis, info


def select_m_changepoint(eigenvalues: np.ndarray) -> int:
    """Basis size at the dominant relative gap of the ascending spectrum.

    Scans ratios lam[k+1] / lam[k] over the first min(count, 50) non-null
    eigenvalues, takes the k of the largest ratio (ties toward smaller k) and
    clamps the result to [2, 50]. An explicitly configured m always overrides
    this heuristic.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.shape[0] < 2:
        raise ValueError("change-point selection needs at least 2 non-null eigenvalues")
    if np.any(lam <= 0.0) or np.any(np.diff(lam) < 0.0):
        raise ValueError("eigenvalues must be positive and ascending")
    limit = min(lam.shape[0], M_SELECT_CAP)
    ratios = lam[1:limit] / lam[: limit - 1]
    best = int(np.argmax(ratios)) + 1
    return min(max(best, 2), M_SELECT_CAP, lam.shape[0])
