import numpy as np
import pytest

from conftest import logistic_factory
from specweight.dataset import CohortDataset
from specweight.evaluation import balanced_accuracy
from specweight.factor_graph import standardize
from specweight.synth import SynthSpec, describe, generate
from specweight.training import TrainConfig, train_baseline_none


def fit_and_score(data: CohortDataset, epochs=40, lr=5e-2, seed=1):
    """Train the last-visit logistic model on everything, score in-sample."""
    cfg = TrainConfig(scheme="none", epochs=epochs, lr_model=lr, batch_size=32, seed=seed)
    split = (np.arange(data.n_samples), np.zeros(0, dtype=int))
    result = train_baseline_none(data, cfg, split, model_factory=logistic_factory)
    probs = result.model.forward([s.visits for s in data.subjects])[0]
    return balanced_accuracy(data.labels, probs)


class TestGenerate:
    def test_noise_free_strong_signal_is_learnable(self):
        spec = SynthSpec(n_subjects=120, feature_width=8, signal_strength=3.0,
                         flip_above=0.0, flip_at_or_below=0.0, seed=5)
        data, _, _ = generate(spec)
        assert fit_and_score(data) > 0.95

    def test_zero_signal_is_chance(self):
        spec = SynthSpec(n_subjects=400, feature_width=8, signal_strength=0.0, seed=6)
        data, _, _ = generate(spec)
        assert abs(fit_and_score(data) - 0.5) <= 0.07

    def test_seed_reproducibility_bit_exact(self):
        a, fa, ga = generate(SynthSpec(n_subjects=30, feature_width=5, seed=9))
        b, fb, gb = generate(SynthSpec(n_subjects=30, feature_width=5, seed=9))
        assert np.array_equal(fa.values, fb.values)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(ga, gb)
        for s1, s2 in zip(a.subjects, b.subjects):
            assert np.array_equal(s1.visits, s2.visits)

    def test_different_seeds_differ(self):
        a, _, _ = generate(SynthSpec(n_subjects=30, feature_width=5, seed=1))
        b, _, _ = generate(SynthSpec(n_subjects=30, feature_width=5, seed=2))
        assert not np.array_equal(a.subjects[0].visits, b.subjects[0].visits)

    def test_low_noise_group_more_predictable(self):
        spec = SynthSpec(n_subjects=300, feature_width=8, signal_strength=3.0, seed=7)
        data, _, groups = generate(spec)
        cfg = TrainConfig(scheme="none", epochs=40, lr_model=5e-2, batch_size=32, seed=2)
        split = (np.arange(data.n_samples), np.zeros(0, dtype=int))
        result = train_baseline_none(data, cfg, split, model_factory=logistic_factory)
        probs = result.model.forward([s.visits for s in data.subjects])[0]
        low = groups == "low"
        bacc_low_noise = balanced_accuracy(data.labels[low], probs[low])
        bacc_high_noise = balanced_accuracy(data.labels[~low], probs[~low])
        assert bacc_low_noise > bacc_high_noise

    def test_group_labels_match_noise_rule(self):
        spec = SynthSpec(n_subjects=50, feature_width=4, seed=8)
        data, factors, groups = generate(spec)
        above = factors.values[:, factors.factor_names.index("group")] > 0.0
        assert np.all((groups == "low") == above)  # flip_above is the smaller rate


class TestDescribe:
    def test_summary_fields(self):
        spec = SynthSpec(n_subjects=400, feature_width=6, seed=10)
        data, factors, _ = generate(spec)
        stats = describe(data, factors)
        assert stats["n_subjects"] == 400
        assert abs(stats["class_balance"] - 0.5) <= 0.05
        assert 1 <= stats["visit_counts"]["min"] <= stats["visit_counts"]["max"] <= 5
        assert set(stats["factors"]) == {"group", "score_a", "score_b"}

    def test_standardized_factors_zero_mean(self):
        data, factors, _ = generate(SynthSpec(n_subjects=100, feature_width=4, seed=11))
        z = standardize(factors)
        assert np.max(np.abs(z.values.mean(axis=0))) < 1e-9


class TestSpecValidation:
    def test_flip_probability_range(self):
        with pytest.raises(ValueError):
            SynthSpec(flip_above=0.5)
        with pytest.raises(ValueError):
            SynthSpec(flip_at_or_below=-0.1)

    def test_visit_range(self):
        with pytest.raises(ValueError):
            SynthSpec(min_visits=0)
        with pytest.raises(ValueError):
            SynthSpec(min_visits=3, max_visits=2)

    def test_feature_width(self):
        with pytest.raises(ValueError):
            SynthSpec(feature_width=1)

    def test_unknown_factor_kind(self):
        with pytest.raises(ValueError, match="factor a: kind must be one of"):
            SynthSpec(factors=(("a", "ordinal"),), noise_factor="a")

    def test_unknown_noise_factor(self):
        with pytest.raises(ValueError):
            SynthSpec(noise_factor="nope")

    def test_duplicate_factor_names(self):
        with pytest.raises(ValueError):
            SynthSpec(factors=(("a", "binary"), ("a", "continuous")), noise_factor="a")
