"""Metrics, cross-validation, sub-cohort analysis, and rank tests.

Every test sample is scored exactly once across the stratified folds, so
median-split and per-factor sub-cohort analyses pool the per-fold test
predictions and inferred weights. The decision threshold is 0.5 throughout.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import blas
from . import training as tr
from .dataset import CohortDataset
from .errors import DataError
from .factor_graph import FactorTable, SpectralBasis, basis_from_factors
from .seeding import derive_seed

DEFAULT_FOLDS = 5
DEFAULT_K_GRID = (10, 30, 50, 75, 100)
DEFAULT_C_GRID = (0.5, 0.65, 0.7, 0.75, 1.0)


# ---------------------------------------------------------------------------
# metrics

def _as_binary(values, name):
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array")
    return arr


def balanced_accuracy(labels, predictions) -> float:
    """Mean of sensitivity and specificity at threshold 0.5.

    `predictions` may be probabilities or already-binary values; anything
    >= 0.5 counts as a positive call. Requires both classes among the labels.
    """
    y = _as_binary(labels, "labels").astype(int)
    pred = _as_binary(predictions, "predictions") >= 0.5
    pos = y == 1
    neg = ~pos
    if not pos.any() or not neg.any():
        raise ValueError("balanced accuracy needs both classes among the labels")
    sens = np.mean(pred[pos])
    spec = np.mean(~pred[neg])
    return float((sens + spec) / 2.0)


def f1_score(labels, predictions) -> float:
    """Harmonic mean of precision and recall for the positive class; 0 when
    there are neither true positives nor any positive calls to speak of."""
    y = _as_binary(labels, "labels").astype(int)
    pred = (_as_binary(predictions, "predictions") >= 0.5).astype(int)
    tp = int(np.sum((y == 1) & (pred == 1)))
    fp = int(np.sum((y == 0) & (pred == 1)))
    fn = int(np.sum((y == 1) & (pred == 0)))
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom > 0 else 0.0


def stratified_kfold(labels, k: int = DEFAULT_FOLDS, seed: int = 0) -> np.ndarray:
    """Fold index per sample with per-class proportions balanced within one.

    Samples are subjects, so the assignment is subject-level by construction.
    Each class is shuffled under the seed and dealt round-robin, continuing
    the rotation across classes so overall fold sizes also differ by at most
    one. Deterministic for a given (labels, k, seed). A class with fewer
    than k samples is a DataError.
    """
    y = _as_binary(labels, "labels").astype(int)
    if k < 2:
        raise ValueError("k must be >= 2")
    counts = np.bincount(y, minlength=2)
    if counts.min() < k:
        raise DataError(f"smallest class has {counts.min()} samples, fewer than {k} folds")
    rng = np.random.default_rng(seed)
    folds = np.full(y.shape[0], -1, dtype=int)
    offset = 0
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        members = rng.permutation(members)
        folds[members] = (np.arange(members.size) + offset) % k
        offset = (offset + members.size) % k
    return folds


def mann_whitney_u(group_a, group_b) -> tuple[float, float]:
    """Rank-sum U statistic and a two-sided p-value.

    U is the smaller of the two one-sided statistics, computed from midranks.
    The p-value uses the normal approximation with tie and continuity
    corrections; when every value is identical the statistic carries no
    information and p is 1.
    """
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both groups must be non-empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("rank test requires finite values")
    na, nb = a.size, b.size
    pooled = np.concatenate([a, b])
    n = na + nb

    _, tie_group, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # 1-based sorted position of each tie group's last member
    ranks = ((2 * ends - counts + 1) / 2.0)[tie_group]  # midrank of each group
    tie_term = float(np.sum(counts ** 3 - counts))
    u_a = float(np.sum(ranks[:na]) - na * (na + 1) / 2.0)
    u = min(u_a, na * nb - u_a)

    variance = (na * nb / 12.0) * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0
    if variance <= 0.0:
        return u, 1.0
    z = (u - na * nb / 2.0 + 0.5) / math.sqrt(variance)
    p = 2.0 * (0.5 * math.erfc(-z / math.sqrt(2.0)))  # 2 * Phi(z), z <= 0 up to the correction
    return u, min(1.0, p)


# ---------------------------------------------------------------------------
# cross-validation

@dataclass
class CVRun:
    """One scheme across stratified folds: each sample's test fold and label,
    and per trained fold the final model's probability and the scheme's
    weight for every sample (NaN where the scheme defines none)."""

    scheme: str
    seed: int
    folds: np.ndarray      # (n_samples,) test fold of each sample
    labels: np.ndarray     # (n_samples,)
    probs: np.ndarray      # (n_folds, n_samples)
    weights: np.ndarray    # (n_folds, n_samples)
    manifests: list[dict] = field(default_factory=list)
    models: list = field(default_factory=list)

    @property
    def n_folds(self) -> int:
        return self.probs.shape[0]

    def scores(self) -> tuple[np.ndarray, np.ndarray]:
        """(balanced accuracy, F1) of each fold over its test samples."""
        _, folds, y, prob, _ = self.pooled_test()
        return fold_scores(folds, y, prob, self.n_folds)

    @property
    def fold_bacc(self) -> np.ndarray:
        return self.scores()[0]

    def pooled_test(self):
        """(row_index, fold, y, prob, weight) for every sample's test fold,
        fold by fold and in row order within a fold."""
        rows = np.argsort(self.folds, kind="stable")
        folds = self.folds[rows]
        return (rows, folds, self.labels[rows], self.probs[folds, rows],
                self.weights[folds, rows])


def fold_scores(folds, y, prob, n_folds: int) -> tuple[np.ndarray, np.ndarray]:
    """(balanced accuracy, F1) of each fold in `range(n_folds)` over its test
    samples, given one fold index, label and probability per pooled test
    sample. The one per-fold scorer behind `CVRun.scores` and `report`. A
    fold without both classes is `balanced_accuracy`'s ValueError."""
    folds, y, prob = np.asarray(folds), np.asarray(y), np.asarray(prob)
    bacc, f1 = [], []
    for fold in range(n_folds):
        test = folds == fold
        bacc.append(balanced_accuracy(y[test], prob[test]))
        f1.append(f1_score(y[test], prob[test]))
    return np.array(bacc), np.array(f1)


def format_mean_std(values) -> str:
    """Percent-scale "mean +/- std" string for fold-level metric summaries."""
    arr = np.asarray(values, dtype=np.float64)
    return f"{100.0 * arr.mean():.1f} ± {100.0 * arr.std():.1f}"


def fold_job(data: CohortDataset, cfg: tr.TrainConfig, folds: np.ndarray, fold: int,
             basis: SpectralBasis | None = None, model_factory=tr.default_model_factory):
    """(probs, weights, manifest, model) of test fold `fold` of `folds`: the
    final model's full-cohort pass (`TrainResult.probs`), the scheme's weight
    of every sample, the fold's manifest and the model, trained under the
    fold's derived seed on the other folds' rows. Inputs and result pickle."""
    fold_cfg = replace(cfg, seed=derive_seed(cfg.seed, "fold", fold))
    split = (np.flatnonzero(folds != fold), np.flatnonzero(folds == fold))
    result = tr.train(data, fold_cfg, split, basis, model_factory)
    history = result.history
    manifest = {"fold": fold, "scheme": cfg.scheme, "seed": fold_cfg.seed,
                "config": dict(vars(cfg)), "initial_objective": history.initial_objective,
                "final_objective": history.final_objective, "epoch_losses": history.epoch_losses,
                "blas_threads_used": blas.threads()}
    return result.probs, result.weights, manifest, result.model


def pool_size(cpus: int, threads: int | None, n_folds: int) -> int:
    """Processes, the caller included, that `cross_validate` should spread
    `n_folds` folds over when each runs `threads` BLAS threads on `cpus`
    CPUs; 1 when the thread count is unknown (None)."""
    return 1 if threads is None else max(1, min(n_folds, cpus // threads))


def cross_validate(data: CohortDataset, factors: FactorTable | None, cfg: tr.TrainConfig,
                   n_folds: int = DEFAULT_FOLDS, model_factory=tr.default_model_factory,
                   basis: SpectralBasis | None = None, pool=None) -> CVRun:
    """Train and score one scheme across stratified folds, one `fold_job`
    per fold.

    The factor graph and its basis cover all samples and are built once; only
    the train/test partition changes per fold. Without a `pool` every fold
    runs here. With the n workers of a `fold_pool`, fold f runs in process
    `f % (n + 1)`: process 0 is the caller, and worker i runs process i + 1's
    folds at this process's BLAS thread count, so the result is the serial
    one bit for bit. A pool serves one call, and its `model_factory` must
    pickle. Every worker has exited when this returns or raises; a worker's
    exception is raised again here.
    """
    if cfg.scheme in ("spectral", "only_graph") and basis is None:
        if factors is None:
            raise ValueError(f"scheme {cfg.scheme} requires a factor table")
        basis, _ = basis_from_factors(factors, cfg.k_neighbors, cfg.m_basis)
    folds = stratified_kfold(data.labels, n_folds, derive_seed(cfg.seed, "folds"))
    workers = pool or []
    share = [range(p, n_folds, len(workers) + 1) for p in range(len(workers) + 1)]
    with contextlib.ExitStack() as stack:
        if workers:
            # Only the job file's path goes down the pipe, so the hand-off never
            # waits for a booting worker to drain a job larger than the pipe buffer.
            job = stack.enter_context(tempfile.NamedTemporaryFile(prefix="specweight-job-"))
            pickle.dump((data, cfg, folds, basis, model_factory), job)
            job.flush()
        for proc, mine in zip(workers, share[1:]):
            stack.callback(proc.kill)   # before the job file goes; a no-op once it has exited
            with contextlib.suppress(BrokenPipeError):   # _worker_result names its exit code
                proc.stdin.write(pickle.dumps((blas.threads(), job.name, mine)))
        results = {fold: fold_job(data, cfg, folds, fold, basis, model_factory)
                   for fold in share[0]}
        for proc, mine in zip(workers, share[1:]):
            results.update(zip(mine, _worker_result(proc)))
    probs, weights, manifests, models = zip(*[results[fold] for fold in range(n_folds)])
    return CVRun(cfg.scheme, cfg.seed, folds, data.labels, np.array(probs), np.array(weights),
                 list(manifests), list(models))


# A worker takes the caller's sys.path from its command line and imports
# specweight, which is its boot; then it waits on stdin for its hand-off: the
# BLAS thread count, the path of the job file and its folds. It writes one
# pickle to stdout: the list of its folds' results, or the exception it raised.
_BOOT = ("import sys\n"
         "sys.path[:] = sys.argv[1:]\n"
         "from specweight.evaluation import fold_worker\n"
         "fold_worker()\n")


@contextlib.contextmanager
def fold_pool(jobs: int):
    """The list of `jobs - 1` worker processes for one `cross_validate(...,
    pool=...)` call, all started at once, so that they boot while the caller
    does other work. A worker's environment sets `OPENBLAS_NUM_THREADS` to
    the caller's thread count, so its OpenBLAS loads at that count and starts
    no thread it will not use; the caller's own environment is left as it is.
    Each worker waits for its job once booted. Every worker has been killed
    and reaped when the block exits, on any path."""
    threads = blas.threads()
    env = None if threads is None else dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    with contextlib.ExitStack() as stack:
        pool = []
        for _ in range(jobs - 1):
            proc = stack.enter_context(subprocess.Popen(
                [sys.executable, "-c", _BOOT, *sys.path], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, bufsize=0, env=env))
            stack.callback(proc.kill)   # runs first; a no-op once the worker has exited
            pool.append(proc)
        yield pool


def _worker_result(proc: subprocess.Popen) -> list:
    """The results of a worker's folds, or its exception raised again here.
    The worker ends as soon as its result is flushed (see `fold_worker`), so
    the wait for its exit holds no interpreter teardown."""
    out, _ = proc.communicate()
    if proc.returncode != 0 or not out:
        raise RuntimeError(f"fold worker exited with code {proc.returncode} "
                           "without a result")
    result = pickle.loads(out)
    if isinstance(result, BaseException):
        raise result
    return result


def fold_worker() -> None:
    """Entry point of a `fold_pool` worker process (see `_BOOT`). It applies
    the hand-off's thread count, since the caller's may have changed after
    the pool started. Once its result is flushed it ends with `os._exit(0)`,
    skipping the interpreter's teardown, which the caller would wait on."""
    out, sys.stdout = sys.stdout.buffer, sys.stderr   # the result is all it writes there
    try:
        threads, path, mine = pickle.load(sys.stdin.buffer)
    except EOFError:   # the pool closed before handing this worker a job
        return
    with open(path, "rb") as fh:
        data, cfg, folds, basis, model_factory = pickle.load(fh)
    if threads is not None:
        blas.set_threads(threads)
    try:
        result = [fold_job(data, cfg, folds, fold, basis, model_factory) for fold in mine]
    except Exception as exc:  # raised again in the caller
        result = exc
    pickle.dump(result, out)
    out.flush()
    sys.stderr.flush()
    os._exit(0)


# ---------------------------------------------------------------------------
# sub-cohort analysis

@dataclass
class MedianSplitGap:
    bacc_high: float
    bacc_low: float
    gap_points: float     # 100 * (high - low), signed
    gap_percent: float    # 100 * |high - low| / low
    n_high: int
    n_low: int
    degenerate: bool


def median_split_from_arrays(y, prob, weights) -> MedianSplitGap:
    """Balanced-accuracy gap between high- and low-weight cohorts.

    Splits at the median weight; samples at the median go to the low side.
    When balanced accuracy is undefined on a side (all-equal weights leave
    the high side empty, or a side holds only one class) or weights are
    missing, the gap is reported as 0 and flagged degenerate.
    """
    y = np.asarray(y)
    prob = np.asarray(prob)
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0 or np.any(~np.isfinite(w)):
        return MedianSplitGap(float("nan"), float("nan"), 0.0, 0.0, 0, 0, True)
    median = float(np.median(w))
    high = w > median
    low = ~high
    if any(np.unique(y[side]).size < 2 for side in (high, low)):
        return MedianSplitGap(float("nan"), float("nan"), 0.0, 0.0,
                              int(high.sum()), int(low.sum()), True)
    bacc_high = balanced_accuracy(y[high], prob[high])
    bacc_low = balanced_accuracy(y[low], prob[low])
    gap_points = 100.0 * (bacc_high - bacc_low)
    gap_percent = 100.0 * abs(bacc_high - bacc_low) / max(bacc_low, 1e-12)
    return MedianSplitGap(bacc_high, bacc_low, gap_points, gap_percent,
                          int(high.sum()), int(low.sum()), False)


def median_split_gap(run: CVRun) -> MedianSplitGap:
    """Median-split gap over the test samples pooled across folds."""
    _, _, y, prob, w = run.pooled_test()
    return median_split_from_arrays(y, prob, w)


@dataclass
class GroupStats:
    label: str
    n: int
    mean_weight: float
    bacc: float | None


@dataclass
class PairTest:
    group_a: str
    group_b: str
    u_statistic: float
    p_value: float


@dataclass
class SubcohortReport:
    factor: str
    groups: list[GroupStats]
    pairwise: list[PairTest]


def _tertile_bins(values: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Equal-count tertiles; samples sharing a value all take the lower bin."""
    # A value's bin is that of its first sorted position, 3 * position // n.
    first = np.searchsorted(np.sort(values), values, side="left")
    return (3 * first) // values.size, ["low", "mid", "high"]


def factor_subcohort_table(weights, y, prob, factor_values, factor_name: str) -> SubcohortReport:
    """Group test samples by one factor and compare weights and accuracy.

    Factors with at most two distinct values form one group per value;
    anything else is split into tertiles. Group balanced accuracy is None
    when a group holds only one class. Pairwise weight comparisons use the
    rank-sum test.
    """
    w = np.asarray(weights, dtype=np.float64)
    y = np.asarray(y)
    prob = np.asarray(prob)
    values = np.asarray(factor_values, dtype=np.float64)
    have_weights = bool(np.all(np.isfinite(w)))

    distinct = np.unique(values)
    if distinct.size <= 2:
        bins = np.searchsorted(distinct, values)
        names = [f"{v:g}" for v in distinct]
    else:
        bins, names = _tertile_bins(values)

    groups = []
    present = []
    for g, name in enumerate(names):
        members = bins == g
        if not members.any():
            continue
        labels = y[members]
        bacc = None
        if np.unique(labels).size == 2:
            bacc = balanced_accuracy(labels, prob[members])
        mean_w = float(w[members].mean()) if have_weights else float("nan")
        groups.append(GroupStats(name, int(members.sum()), mean_w, bacc))
        present.append((name, members))

    # Weight comparisons only make sense for schemes that define test weights.
    pairwise = []
    if have_weights:
        for i in range(len(present)):
            for j in range(i + 1, len(present)):
                u, p = mann_whitney_u(w[present[i][1]], w[present[j][1]])
                pairwise.append(PairTest(present[i][0], present[j][0], u, p))
    return SubcohortReport(factor_name, groups, pairwise)


# ---------------------------------------------------------------------------
# neighbor / centering sweep

@dataclass
class SweepCell:
    k: int
    c: float
    seed: int
    gap_points: float
    gap_percent: float
    bacc_high: float
    bacc_low: float
    overall_bacc: float
    degenerate: bool


def sweep(data: CohortDataset, factors: FactorTable, cfg: tr.TrainConfig,
          k_values=DEFAULT_K_GRID, c_values=DEFAULT_C_GRID,
          n_folds: int = DEFAULT_FOLDS, model_factory=tr.default_model_factory) -> list[SweepCell]:
    """Full-factorial neighbor-count x centering grid of median-split gaps.

    Cells run the spectral scheme independently, each under seed + cell index
    (row-major over the grid); the basis is shared across centering values for
    a given neighbor count since it does not depend on c. Every K's basis is
    built before any cell trains, so a K or `m_basis` that the cohort cannot
    take is a DataError before any training.
    """
    bases = [basis_from_factors(factors, k, cfg.m_basis)[0] for k in k_values]
    cells = []
    for ik, (k, basis) in enumerate(zip(k_values, bases)):
        for ic, c in enumerate(c_values):
            cell_seed = cfg.seed + ik * len(c_values) + ic
            cell_cfg = replace(cfg, scheme="spectral", k_neighbors=k,
                               centering_c=c, seed=cell_seed)
            run = cross_validate(data, factors, cell_cfg, n_folds, model_factory,
                                 basis=basis)
            gap = median_split_gap(run)
            cells.append(SweepCell(k, float(c), cell_seed, gap.gap_points,
                                   gap.gap_percent, gap.bacc_high, gap.bacc_low,
                                   float(run.fold_bacc.mean()), gap.degenerate))
    return cells
