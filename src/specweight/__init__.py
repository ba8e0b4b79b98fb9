"""Spectral graph sample weighting for sub-cohort predictability analysis.

Builds a similarity graph over study samples from auxiliary factors, expresses
per-sample loss weights as a learnable combination of the graph Laplacian's
low-frequency eigenbases, trains weighted classifiers, infers weights for
held-out samples transductively, and reports how predictability varies across
sub-cohorts.
"""

from .dataset import CohortDataset, Subject, read_cohort_csv, write_cohort_csv
from .evaluation import (
    CVRun,
    balanced_accuracy,
    cross_validate,
    f1_score,
    mann_whitney_u,
    median_split_from_arrays,
    median_split_gap,
    pooled_analysis,
    stratified_kfold,
    sweep,
)
from .factor_graph import (
    FactorGraph,
    FactorTable,
    SpectralBasis,
    basis_from_factors,
    build_graph,
    laplacian,
    select_m_changepoint,
    spectral_basis,
    standardize,
    symmetric_eigen,
)
from .predictor import RecurrentClassifier, bce_loss
from .synth import SynthSpec, describe, generate
from .training import (
    AdamState,
    TrainConfig,
    adam_step,
    predict,
    train,
    train_baseline_none,
    train_jtt,
    train_only_graph,
    train_spectral,
)
from .weight_field import WeightField, grad_a, negativity_penalty

__version__ = "0.1.0"

__all__ = [
    "AdamState", "CVRun", "CohortDataset", "FactorGraph",
    "FactorTable", "RecurrentClassifier",
    "SpectralBasis", "Subject", "SynthSpec", "TrainConfig", "WeightField",
    "adam_step", "balanced_accuracy", "basis_from_factors", "bce_loss",
    "build_graph", "cross_validate", "describe", "f1_score", "generate",
    "grad_a", "laplacian", "mann_whitney_u", "median_split_from_arrays",
    "median_split_gap", "negativity_penalty", "pooled_analysis", "predict", "read_cohort_csv",
    "select_m_changepoint", "spectral_basis", "standardize", "stratified_kfold",
    "sweep", "symmetric_eigen", "train", "train_baseline_none", "train_jtt",
    "train_only_graph", "train_spectral", "write_cohort_csv",
]
