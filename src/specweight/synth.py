"""Seeded synthetic longitudinal cohorts with factor-dependent label noise.

Stands in for restricted clinical cohorts in end-to-end tests: subjects carry
auxiliary factors, a latent binary outcome drives a Gaussian feature signal
along a fixed direction, and the observed label is a noisy copy whose flip
probability depends on one factor. That gives a known ground truth for which
sub-cohort is intrinsically harder to predict. Every setting is a
`SynthSpec` field, and each check raises `ValueError`, which the command line
reports as a usage error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import CohortDataset, Subject
from .factor_graph import FactorTable
from .seeding import rng_for

FACTOR_KINDS = ("binary", "continuous")


@dataclass(frozen=True)
class SynthSpec:
    """A cohort's size, factors and label noise: a label flips with
    probability `flip_above` where the `noise_factor` value is above
    `noise_threshold`, and with `flip_at_or_below` elsewhere."""

    n_subjects: int = 400
    feature_width: int = 20
    min_visits: int = 1
    max_visits: int = 5
    factors: tuple[tuple[str, str], ...] = (
        ("group", "binary"),
        ("score_a", "continuous"),
        ("score_b", "continuous"),
    )
    noise_factor: str = "group"
    noise_threshold: float = 0.0
    flip_above: float = 0.05
    flip_at_or_below: float = 0.40
    signal_strength: float = 1.0
    drift_scale: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for p in (self.flip_above, self.flip_at_or_below):
            if not 0.0 <= p < 0.5:
                raise ValueError(f"flip probabilities must lie in [0, 0.5), got {p}")
        if self.n_subjects < 2:
            raise ValueError("n_subjects must be >= 2")
        if self.feature_width < 2:
            raise ValueError("feature_width must be >= 2")
        if self.min_visits < 1 or self.max_visits < self.min_visits:
            raise ValueError("visit range must satisfy 1 <= min <= max")
        names = [name for name, _ in self.factors]
        if len(set(names)) != len(names) or not names:
            raise ValueError("factor names must be unique and non-empty")
        for name, kind in self.factors:
            if kind not in FACTOR_KINDS:
                raise ValueError(f"factor {name}: kind must be one of {FACTOR_KINDS}")
        if self.noise_factor not in names:
            raise ValueError(f"noise factor {self.noise_factor!r} is not a declared factor")
        for name in ("noise_threshold", "signal_strength", "drift_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.signal_strength < 0.0 or self.drift_scale < 0.0:
            raise ValueError("signal_strength and drift_scale must be >= 0")


def generate(spec: SynthSpec) -> tuple[CohortDataset, FactorTable, np.ndarray]:
    """Cohort, factor table, and ground-truth noise group per subject.

    "low" marks the sub-cohort with the smaller flip probability. Generation
    is a pure function of the spec (all draws come from one seeded stream in
    a fixed order).
    """
    rng = rng_for(spec.seed, "synth")
    direction = rng.normal(size=spec.feature_width)
    direction /= np.linalg.norm(direction)

    noise_idx = [name for name, _ in spec.factors].index(spec.noise_factor)
    low_is_above = spec.flip_above <= spec.flip_at_or_below  # the above side flips less

    subjects = []
    factor_rows = np.empty((spec.n_subjects, len(spec.factors)))
    groups = np.empty(spec.n_subjects, dtype=object)
    for i in range(spec.n_subjects):
        for j, (_, kind) in enumerate(spec.factors):
            factor_rows[i, j] = float(rng.integers(0, 2)) if kind == "binary" else rng.normal()
        y_true = int(rng.integers(0, 2))
        n_visits = int(rng.integers(spec.min_visits, spec.max_visits + 1))
        drift = rng.normal(size=spec.feature_width) * spec.drift_scale
        center = (2.0 * y_true - 1.0) * spec.signal_strength * direction
        visits = center + np.arange(n_visits)[:, None] * drift \
            + rng.normal(size=(n_visits, spec.feature_width))

        above = factor_rows[i, noise_idx] > spec.noise_threshold
        flip_prob = spec.flip_above if above else spec.flip_at_or_below
        flipped = rng.random() < flip_prob
        label = y_true ^ int(flipped)
        subjects.append(Subject(f"S{i:04d}", visits, label))
        groups[i] = "low" if (above == low_is_above) else "high"

    data = CohortDataset(tuple(subjects))
    factors = FactorTable(factor_rows, tuple(name for name, _ in spec.factors))
    return data, factors, groups


def describe(data: CohortDataset, factors: FactorTable) -> dict:
    """Summary statistics: class balance, visit counts, factor moments."""
    visit_counts = np.array([s.visits.shape[0] for s in data.subjects])
    labels = data.labels
    return {
        "n_subjects": data.n_samples,
        "feature_width": data.feature_width,
        "class_balance": float(labels.mean()),
        "visit_counts": {
            "min": int(visit_counts.min()),
            "max": int(visit_counts.max()),
            "mean": float(visit_counts.mean()),
        },
        "factors": {
            name: {
                "mean": float(factors.values[:, j].mean()),
                "std": float(factors.values[:, j].std()),
                "min": float(factors.values[:, j].min()),
                "max": float(factors.values[:, j].max()),
            }
            for j, name in enumerate(factors.factor_names)
        },
    }
