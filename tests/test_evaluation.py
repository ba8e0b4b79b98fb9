import itertools
import math
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FailsIn, assert_no_child_process, logistic_factory, small_gru_factory
from specweight import evaluation
from specweight.errors import DataError, NumericalError
from specweight.evaluation import (
    DEFAULT_C_GRID,
    DEFAULT_K_GRID,
    CVRun,
    _tertile_bins,
    balanced_accuracy,
    cross_validate,
    f1_score,
    factor_subcohort_table,
    fold_job,
    fold_pool,
    fold_scores,
    format_mean_std,
    mann_whitney_u,
    median_split_gap,
    pool_size,
    stratified_kfold,
    sweep,
)
from specweight.factor_graph import basis_from_factors
from specweight.synth import SynthSpec, generate
from specweight.training import TrainConfig, default_model_factory, predict


def confusion_vectors(tp, fp, tn, fn):
    y = [1] * tp + [0] * fp + [0] * tn + [1] * fn
    pred = [1] * tp + [1] * fp + [0] * tn + [0] * fn
    return np.array(y), np.array(pred)


def brute_force_u(a, b):
    """Cross-pair win count, ties counted half; the smaller side."""
    wins_a = sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in a for y in b)
    return min(wins_a, len(a) * len(b) - wins_a)


def reference_mann_whitney_u(group_a, group_b):
    """`mann_whitney_u` as it was written before it ranked with np.unique:
    a Python loop over the sorted pool assigning midranks tie run by tie run."""
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    na, nb = a.size, b.size
    pooled = np.concatenate([a, b])
    n = na + nb
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(n)
    sorted_vals = pooled[order]
    i = 0
    tie_term = 0.0
    while i < n:
        j = i + 1
        while j < n and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0
        t = j - i
        tie_term += t ** 3 - t
        i = j
    u_a = float(np.sum(ranks[:na]) - na * (na + 1) / 2.0)
    u = min(u_a, na * nb - u_a)
    variance = (na * nb / 12.0) * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0
    if variance <= 0.0:
        return u, 1.0
    z = (u - na * nb / 2.0 + 0.5) / math.sqrt(variance)
    return u, min(1.0, 2.0 * (0.5 * math.erfc(-z / math.sqrt(2.0))))


def reference_tertile_bins(values):
    """`_tertile_bins` as it was written before it used searchsorted: bins by
    sorted position, then every tied value moved to its lowest bin."""
    n = values.size
    order = np.argsort(values, kind="stable")
    bins = np.empty(n, dtype=int)
    bins[order] = (3 * np.arange(n)) // n
    for v in np.unique(values):
        members = values == v
        bins[members] = bins[members].min()
    return bins


# Tie-heavy samples: small integers as floats, with both signed zeros.
tied_values = st.lists(st.one_of(st.integers(-3, 3).map(float), st.sampled_from([0.0, -0.0])),
                       min_size=1, max_size=15)


def same_bits(x, y) -> bool:
    return np.asarray(x, dtype=np.float64).tobytes() == np.asarray(y, dtype=np.float64).tobytes()


class TestBalancedAccuracy:
    def test_mixed_confusion(self):
        y, pred = confusion_vectors(tp=9, fp=2, tn=8, fn=1)
        assert balanced_accuracy(y, pred) == pytest.approx(0.85)

    def test_perfect(self):
        y, pred = confusion_vectors(tp=5, fp=0, tn=5, fn=0)
        assert balanced_accuracy(y, pred) == 1.0

    def test_all_positive_on_balanced(self):
        y, pred = confusion_vectors(tp=5, fp=5, tn=0, fn=0)
        assert balanced_accuracy(y, pred) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            balanced_accuracy([1, 1, 1], [1, 0, 1])

    def test_threshold_at_half(self):
        assert balanced_accuracy([1, 0], [0.5, 0.49]) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2, max_size=30))
    def test_label_swap_invariance(self, pairs):
        y = np.array([p[0] for p in pairs])
        pred = np.array([p[1] for p in pairs])
        if np.unique(y).size < 2:
            return
        assert balanced_accuracy(y, pred) == pytest.approx(balanced_accuracy(1 - y, 1 - pred))


class TestF1:
    def test_example(self):
        y, pred = confusion_vectors(tp=8, fp=2, tn=0, fn=2)
        assert f1_score(y, pred) == pytest.approx(0.8)

    def test_no_positive_predictions(self):
        assert f1_score([1, 1, 0], [0, 0, 0]) == 0.0

    def test_perfect(self):
        y, pred = confusion_vectors(tp=4, fp=0, tn=4, fn=0)
        assert f1_score(y, pred) == 1.0


def test_metrics_match_enumeration_oracle():
    # every confusion split of up to 8 samples, checked against loop-based oracles
    for n in range(2, 9):
        for y_bits in itertools.product((0, 1), repeat=n):
            if len(set(y_bits)) < 2:
                continue
            for p_bits in itertools.product((0, 1), repeat=n):
                pos_correct = sum(1 for yy, pp in zip(y_bits, p_bits) if yy == 1 and pp == 1)
                neg_correct = sum(1 for yy, pp in zip(y_bits, p_bits) if yy == 0 and pp == 0)
                n_pos = sum(y_bits)
                n_neg = n - n_pos
                oracle_bacc = (pos_correct / n_pos + neg_correct / n_neg) / 2
                tp = pos_correct
                fp = sum(p_bits) - tp
                fn = n_pos - tp
                oracle_f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
                assert abs(balanced_accuracy(y_bits, p_bits) - oracle_bacc) < 1e-12
                assert abs(f1_score(y_bits, p_bits) - oracle_f1) < 1e-12
        if n > 6:
            break  # 2^14 combinations checked by here; acceptance covers the rest


class TestStratifiedKFold:
    def test_balanced_ten_samples(self):
        labels = [0] * 5 + [1] * 5
        folds = stratified_kfold(labels, k=5, seed=0)
        for f in range(5):
            members = np.asarray(labels)[folds == f]
            assert members.tolist().count(0) == 1
            assert members.tolist().count(1) == 1

    def test_fold_sizes_within_one(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=53)
        while np.bincount(labels).min() < 5:
            labels = rng.integers(0, 2, size=53)
        folds = stratified_kfold(labels, k=5, seed=3)
        sizes = np.bincount(folds, minlength=5)
        assert sizes.max() - sizes.min() <= 1
        for cls in (0, 1):
            per_fold = np.bincount(folds[labels == cls], minlength=5)
            assert per_fold.max() - per_fold.min() <= 1

    def test_seed_reproducibility(self):
        labels = [0, 1] * 10
        assert np.array_equal(stratified_kfold(labels, 5, seed=7),
                              stratified_kfold(labels, 5, seed=7))
        assert not np.array_equal(stratified_kfold(labels, 5, seed=7),
                                  stratified_kfold(labels, 5, seed=8))

    def test_every_sample_assigned_once(self):
        labels = [0, 1] * 13
        folds = stratified_kfold(labels, 5, seed=2)
        assert folds.shape == (26,)
        assert set(folds) == set(range(5))

    def test_too_few_per_class(self):
        with pytest.raises(DataError, match="smallest class has 2 samples, fewer than 3 folds"):
            stratified_kfold([0, 0, 0, 1, 1], k=3)


class TestMannWhitney:
    def test_disjoint_pairs(self):
        # all four cross pairs favor group b
        u, _ = mann_whitney_u([1, 2], [3, 4])
        assert u == 0.0
        assert u == brute_force_u([1, 2], [3, 4])

    def test_identical_groups(self):
        u, p = mann_whitney_u([5, 5], [5, 5])
        assert p == 1.0

    def test_hand_computed_normal_approximation(self):
        # z = (0 - 12.5 + 0.5) / sqrt(25 * 11 / 12) = -2.50670...
        u, p = mann_whitney_u([1, 2, 3, 4, 5], [6, 7, 8, 9, 10])
        assert u == 0.0
        z = (0 - 12.5 + 0.5) / np.sqrt(25 * 11 / 12)
        import math
        expected = 2 * 0.5 * math.erfc(-z / math.sqrt(2))
        assert p == pytest.approx(expected, abs=1e-12)
        assert p == pytest.approx(0.0122, abs=5e-4)

    def test_symmetry(self):
        a, b = [1.0, 3.0, 3.0, 7.0], [2.0, 3.0, 9.0]
        assert mann_whitney_u(a, b)[0] == mann_whitney_u(b, a)[0]

    def test_empty_group_raises(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            mann_whitney_u([np.nan, 1.0], [2.0])

    @settings(max_examples=300, deadline=None)
    @given(tied_values, tied_values)
    def test_bit_identical_to_midrank_loop(self, a, b):
        u, p = mann_whitney_u(a, b)
        ref_u, ref_p = reference_mann_whitney_u(a, b)
        assert same_bits(u, ref_u) and same_bits(p, ref_p)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6),
           st.lists(st.integers(1, 6), min_size=1, max_size=6))
    def test_matches_brute_force(self, a, b):
        u, p = mann_whitney_u(a, b)
        assert u == brute_force_u(a, b)
        assert 0.0 <= p <= 1.0


def _run_from_arrays(y, prob, weights):
    """A one-fold run whose pooled test arrays are `y`, `prob` and `weights`."""
    y = np.asarray(y, dtype=float)
    return CVRun("spectral", seed=0, folds=np.zeros(y.size, dtype=int), labels=y,
                 probs=np.asarray(prob, dtype=float)[None],
                 weights=np.asarray(weights, dtype=float)[None])


class TestMedianSplit:
    def test_all_equal_weights_degenerate(self):
        run = _run_from_arrays([0, 1, 0, 1], [0.2, 0.8, 0.3, 0.7], [1.0] * 4)
        gap = median_split_gap(run)
        assert gap.degenerate and gap.gap_points == 0.0 and gap.gap_percent == 0.0

    def test_hand_built_instance(self):
        # high side perfect, low side at chance: gap is (100 - 50) / 50 = 100%
        y = [0, 1, 0, 1, 0, 1, 0, 1]
        prob = [0.1, 0.9, 0.2, 0.8, 0.9, 0.9, 0.1, 0.1]
        w = [2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]
        gap = median_split_gap(_run_from_arrays(y, prob, w))
        assert not gap.degenerate
        assert gap.bacc_high == 1.0
        assert gap.bacc_low == 0.5
        assert gap.gap_percent == pytest.approx(100.0)
        assert gap.gap_points == pytest.approx(50.0)

    def test_median_ties_go_low(self):
        y = [0, 1, 0, 1]
        prob = [0.0, 1.0, 1.0, 0.0]
        w = [3.0, 3.0, 1.0, 2.0]  # median 2.5: the two 3.0s are high
        gap = median_split_gap(_run_from_arrays(y, prob, w))
        assert gap.n_high == 2 and gap.n_low == 2
        assert gap.bacc_high == 1.0 and gap.bacc_low == 0.0

    def test_one_class_side_degenerate(self):
        # median 0.55: the high side holds only positives, so its BACC is undefined
        run = _run_from_arrays([0, 1, 1, 1], [0.2, 0.8, 0.9, 0.7], [0.1, 0.2, 0.9, 1.0])
        gap = median_split_gap(run)
        assert gap.degenerate and gap.gap_points == 0.0 and gap.gap_percent == 0.0
        assert gap.n_high == 2 and gap.n_low == 2

    def test_missing_weights_degenerate(self):
        run = _run_from_arrays([0, 1], [0.2, 0.8], [np.nan, np.nan])
        assert median_split_gap(run).degenerate


class TestSubcohortTable:
    def test_binary_identical_weights_not_significant(self):
        table = factor_subcohort_table(
            weights=[1.0] * 8, y=[0, 1] * 4, prob=[0.1, 0.9] * 4,
            factor_values=[0, 0, 0, 0, 1, 1, 1, 1], factor_name="g")
        assert len(table.groups) == 2
        assert all(p.p_value > 0.05 for p in table.pairwise)

    def test_tertile_boundaries_ties_to_lower(self):
        values = [1, 2, 2, 2, 3, 4, 5, 6, 7]
        table = factor_subcohort_table(
            weights=np.arange(9, dtype=float), y=[0, 1] * 4 + [0],
            prob=[0.5] * 9, factor_values=values, factor_name="v")
        sizes = {g.label: g.n for g in table.groups}
        # the three 2s share the low bin even though one lands past the cut
        assert sizes == {"low": 4, "mid": 2, "high": 3}

    @settings(max_examples=300, deadline=None)
    @given(tied_values)
    def test_tertiles_equal_tie_loop(self, values):
        values = np.array(values)
        bins, names = _tertile_bins(values)
        ref = reference_tertile_bins(values)
        assert bins.dtype == ref.dtype and np.array_equal(bins, ref)
        assert names == ["low", "mid", "high"]

    def test_group_bacc_none_for_single_class(self):
        table = factor_subcohort_table(
            weights=[1.0, 2.0, 3.0, 4.0], y=[0, 0, 0, 1], prob=[0.1] * 4,
            factor_values=[0, 0, 1, 1], factor_name="g")
        by_label = {g.label: g for g in table.groups}
        assert by_label["0"].bacc is None
        assert by_label["1"].bacc is not None

    def test_weight_difference_detected(self):
        rng = np.random.default_rng(4)
        group = np.array([0] * 20 + [1] * 20)
        w = np.where(group == 1, 1.0, 0.5) + rng.normal(scale=0.01, size=40)
        table = factor_subcohort_table(
            weights=w, y=[0, 1] * 20, prob=rng.uniform(size=40),
            factor_values=group, factor_name="g")
        assert table.pairwise[0].p_value < 1e-6


class TestCrossValidateAndSweep:
    def test_fold_metrics_and_manifests(self, tiny_cohort):
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(scheme="spectral", epochs=2, lr_model=5e-2, lr_a=1e-3,
                          batch_size=16, k_neighbors=8, m_basis=4, seed=9)
        run = cross_validate(data, factors, cfg, n_folds=5, model_factory=logistic_factory)
        bacc, f1 = run.scores()
        assert run.n_folds == 5
        assert run.probs.shape == run.weights.shape == (5, data.n_samples)
        assert bacc.shape == f1.shape == (5,)
        assert np.array_equal(run.fold_bacc, bacc)
        assert np.all((0.0 <= bacc) & (bacc <= 1.0))
        assert np.all((0.0 <= f1) & (f1 <= 1.0))
        assert np.array_equal(np.unique(run.folds), np.arange(5))
        m = run.manifests[0]
        assert {"fold", "scheme", "seed", "config", "initial_objective",
                "final_objective", "epoch_losses"} <= set(m)
        assert len(m["epoch_losses"]) == 2

    def test_fold_scores_are_test_mask_metrics(self, tiny_cohort):
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(scheme="none", epochs=1, lr_model=5e-2, batch_size=16, seed=3)
        run = cross_validate(data, factors, cfg, n_folds=4, model_factory=logistic_factory)
        for fold, (bacc, f1) in enumerate(zip(*run.scores(), strict=True)):
            test = run.folds == fold
            y, prob = run.labels[test], run.probs[fold, test]
            assert bacc == balanced_accuracy(y, prob)
            assert f1 == f1_score(y, prob)

    @pytest.mark.parametrize("scheme", ["spectral", "jtt"])
    def test_pooled_test_equals_per_fold_loop(self, tiny_cohort, scheme):
        """pooled_test against the per-fold concatenation it replaced: test
        rows fold by fold, in row order within a fold, bit for bit (jtt's
        test weights are NaN)."""
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(scheme=scheme, epochs=1, lr_model=5e-2, lr_a=1e-3, batch_size=16,
                          k_neighbors=8, m_basis=4, seed=12)
        run = cross_validate(data, factors, cfg, n_folds=3, model_factory=logistic_factory)
        rows, folds, ys, probs, ws = [], [], [], [], []
        for fold in range(run.n_folds):
            idx = np.flatnonzero(run.folds == fold)
            rows.append(idx)
            folds.append(np.full(idx.size, fold))
            ys.append(data.labels.copy()[idx])
            probs.append(run.probs[fold][idx])
            ws.append(run.weights[fold][idx])
        expected = [np.concatenate(a) for a in (rows, folds, ys, probs, ws)]
        for got, want in zip(run.pooled_test(), expected, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_fold_scores_names_a_one_class_fold(self):
        bacc, f1 = fold_scores([0, 0, 1, 1], [0, 1, 0, 1], [0.2, 0.9, 0.6, 0.1], 2)
        assert bacc.tolist() == [1.0, 0.0] and f1.tolist() == [1.0, 0.0]
        with pytest.raises(ValueError, match="balanced accuracy needs both classes among the labels"):
            fold_scores([0, 0, 1, 1], [0, 1, 1, 1], [0.2, 0.9, 0.6, 0.1], 2)

    @pytest.mark.parametrize("scheme, trained_models", [
        ("none", 1), ("spectral", 1), ("only_graph", 1), ("jtt", 2)])
    def test_one_full_cohort_pass_per_trained_model(self, tiny_cohort, scheme,
                                                    trained_models):
        """Per trained model: the initial objective, the training batches and
        one full-cohort pass, and no second pass over the train rows."""
        data, factors, _ = tiny_cohort
        batch_sizes = []

        def counting_factory(feature_width, rng):
            model = small_gru_factory(feature_width, rng)
            forward = model.forward

            def counted_forward(sequences):
                batch_sizes.append(len(sequences))
                return forward(sequences)

            model.forward = counted_forward
            return model

        epochs, b, n = 2, 16, data.n_samples
        cfg = TrainConfig(scheme=scheme, epochs=epochs, batch_size=b, k_neighbors=8,
                          m_basis=4, seed=6)
        run = cross_validate(data, factors, cfg, n_folds=3, model_factory=counting_factory)
        n_train = [n - int(np.sum(run.folds == fold)) for fold in range(run.n_folds)]
        per_model = [-(-t // b) * (1 + epochs) + -(-n // b) for t in n_train]
        assert len(batch_sizes) == trained_models * sum(per_model)
        assert sum(batch_sizes) == trained_models * sum((1 + epochs) * t + n for t in n_train)

    def test_default_grids(self):
        assert DEFAULT_K_GRID == (10, 30, 50, 75, 100)
        assert DEFAULT_C_GRID == (0.5, 0.65, 0.7, 0.75, 1.0)

    def test_sweep_grid_and_reproducibility(self, tiny_cohort):
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(scheme="spectral", epochs=2, lr_model=5e-2, lr_a=1e-3,
                          batch_size=16, m_basis=3, seed=5)
        cells = sweep(data, factors, cfg, k_values=(5, 10), c_values=(0.5, 0.65),
                      n_folds=5, model_factory=logistic_factory)
        assert [(c.k, c.c) for c in cells] == [(5, 0.5), (5, 0.65), (10, 0.5), (10, 0.65)]
        assert [c.seed for c in cells] == [5, 6, 7, 8]
        assert all(np.isfinite(c.gap_points) for c in cells)
        again = sweep(data, factors, cfg, k_values=(5, 10), c_values=(0.5, 0.65),
                      n_folds=5, model_factory=logistic_factory)
        assert [(c.gap_points, c.overall_bacc) for c in cells] == \
               [(c.gap_points, c.overall_bacc) for c in again]


class TestFoldJob:
    """`fold_job` is the one path from `cross_validate` and `sweep` to a
    trained fold, and a job and its result survive pickling."""

    @pytest.fixture
    def job_calls(self, monkeypatch):
        calls = []
        real = evaluation.fold_job

        def counted(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "fold_job", counted)
        return calls

    @pytest.mark.parametrize("scheme", ["spectral", "jtt"])
    def test_cross_validate_runs_one_job_per_fold(self, tiny_cohort, job_calls, scheme):
        # jtt's train call recurses for stage one; the fold is still one job.
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(scheme=scheme, epochs=1, lr_model=5e-2, batch_size=16,
                          k_neighbors=8, m_basis=4, seed=2)
        cross_validate(data, factors, cfg, n_folds=4, model_factory=logistic_factory)
        assert job_calls == [0, 1, 2, 3]

    def test_sweep_runs_one_job_per_cell_and_fold(self, tiny_cohort, job_calls):
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(epochs=1, lr_model=5e-2, batch_size=16, m_basis=3, seed=5)
        sweep(data, factors, cfg, k_values=(5, 10), c_values=(0.5, 0.65, 1.0), n_folds=3,
              model_factory=logistic_factory)
        assert job_calls == [0, 1, 2] * (2 * 3)

    def test_sweep_checks_every_k_before_it_trains(self, tiny_cohort, job_calls):
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(epochs=1, lr_model=5e-2, batch_size=16, m_basis=3, seed=5)
        with pytest.raises(DataError, match="k_neighbors must be in"):
            sweep(data, factors, cfg, k_values=(5, data.n_samples), c_values=(0.5,),
                  n_folds=3, model_factory=logistic_factory)
        assert job_calls == []

    @pytest.mark.parametrize("scheme", ["spectral", "none", "only_graph", "jtt"])
    def test_each_job_returns_what_cross_validate_keeps(self, tiny_cohort, scheme):
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(scheme=scheme, epochs=1, lr_model=5e-2, lr_a=1e-3, batch_size=16,
                          k_neighbors=8, m_basis=4, seed=8)
        run = cross_validate(data, factors, cfg, n_folds=3, model_factory=logistic_factory)
        basis = basis_from_factors(factors, 8, 4)[0] if scheme in ("spectral", "only_graph") \
            else None
        for fold in range(3):
            probs, weights, manifest, model = fold_job(data, cfg, run.folds, fold, basis,
                                                       logistic_factory)
            assert np.array_equal(probs, run.probs[fold])
            assert np.array_equal(weights, run.weights[fold], equal_nan=True)
            assert manifest == run.manifests[fold]
            assert list(manifest) == ["fold", "scheme", "seed", "config", "initial_objective",
                                      "final_objective", "epoch_losses",
                                      "blas_threads_used"]
            assert np.array_equal(model.flat_params(), run.models[fold].flat_params())

    @pytest.mark.parametrize("scheme", ["spectral", "jtt"])
    def test_job_and_result_round_trip_through_pickle(self, tiny_cohort, scheme):
        """The job's inputs, pickled and loaded in this process, give the same
        result bit for bit; so does that result, pickled and loaded, and its
        GRU still predicts the same probabilities."""
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(scheme=scheme, epochs=1, batch_size=16, k_neighbors=8, m_basis=4,
                          seed=4)
        folds = stratified_kfold(data.labels, 3, seed=1)
        basis = basis_from_factors(factors, 8, 4)[0] if scheme == "spectral" else None
        job = (data, cfg, folds, 1, basis, default_model_factory)
        direct = fold_job(*job)
        sent = fold_job(*pickle.loads(pickle.dumps(job)))
        back = pickle.loads(pickle.dumps(sent))
        for result in (sent, back):
            for got, want in zip(result[:2], direct[:2], strict=True):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert result[2] == direct[2]
            assert result[3].flat_params().tobytes() == direct[3].flat_params().tobytes()
            rows = np.arange(data.n_samples)
            assert predict(data, result[3], rows, 16).tobytes() == direct[0].tobytes()
        back[3].set_flat_params(np.zeros(back[3].n_params))
        assert np.all(predict(data, back[3], rows, 16) == 0.5)


class TestFoldPool:
    """`cross_validate(..., pool=...)` with the n workers of a `fold_pool`
    runs fold f in process f % (n + 1); process 0 is the caller."""

    @pytest.mark.parametrize("scheme, jobs", [("spectral", 2), ("jtt", 3)])
    def test_pool_matches_serial_bit_for_bit(self, tiny_cohort, scheme, jobs):
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(scheme=scheme, epochs=1, batch_size=16, k_neighbors=8, m_basis=4,
                          seed=3)
        serial = cross_validate(data, factors, cfg, n_folds=3)
        with fold_pool(jobs) as pool:
            assert len(pool) == jobs - 1
            pooled = cross_validate(data, factors, cfg, n_folds=3, pool=pool)
        assert_no_child_process()
        assert pooled.probs.tobytes() == serial.probs.tobytes()
        assert pooled.weights.tobytes() == serial.weights.tobytes()
        assert pooled.manifests == serial.manifests
        for got, want in zip(pooled.models, serial.models, strict=True):
            assert got.flat_params().tobytes() == want.flat_params().tobytes()

    def test_the_hand_off_never_waits_for_a_boot(self, monkeypatch):
        """A job larger than the pipe buffer reaches a worker that is still
        booting without holding up the caller's first fold."""
        data, factors, _ = generate(SynthSpec())
        cfg = TrainConfig(scheme="none", epochs=1, seed=5)
        assert len(pickle.dumps((data, cfg))) > 64 * 1024
        serial = cross_validate(data, factors, cfg, n_folds=3)
        monkeypatch.setattr(evaluation, "_BOOT", "import time\ntime.sleep(1.0)\n" + evaluation._BOOT)
        started = []
        job = evaluation.fold_job
        monkeypatch.setattr(evaluation, "fold_job", lambda *args: (
            started.append(time.perf_counter()), job(*args))[1])
        with fold_pool(2) as pool:
            begin = time.perf_counter()
            pooled = cross_validate(data, factors, cfg, n_folds=3, pool=pool)
            end = time.perf_counter()
        assert_no_child_process()
        assert started[0] - begin < 0.5
        assert end - begin >= 1.0   # the worker's boot did take its second
        assert pooled.probs.tobytes() == serial.probs.tobytes()
        for got, want in zip(pooled.models, serial.models, strict=True):
            assert got.flat_params().tobytes() == want.flat_params().tobytes()

    def test_a_worker_boot_imports_no_command_module(self):
        """The import in `_BOOT` loads the fold code only: not the synthetic
        generator, the CLI or the run-directory writer."""
        probe = ("import sys\n"
                 "from specweight.evaluation import fold_worker\n"
                 "print(sorted({'specweight.synth', 'specweight.cli', 'specweight.runio'}"
                 " & set(sys.modules)))\n")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout == "[]\n"

    def test_a_worker_takes_its_path_from_its_command_line(self):
        """A worker boots from the paths on its command line alone: with
        nothing on stdin it exits quietly, having read no start-up message."""
        out = subprocess.run([sys.executable, "-c", evaluation._BOOT, *sys.path],
                             stdin=subprocess.DEVNULL, capture_output=True)
        assert (out.returncode, out.stdout, out.stderr) == (0, b"", b"")

    def test_the_block_kills_and_reaps_its_workers_on_an_error(self):
        with pytest.raises(DataError, match="read failed"):
            with fold_pool(3) as pool:
                assert len(pool) == 2 and all(proc.poll() is None for proc in pool)
                raise DataError("read failed")
        assert all(proc.returncode is not None for proc in pool)
        assert_no_child_process()

    def test_a_worker_that_gets_no_job_exits_quietly(self, capfd):
        with fold_pool(2) as pool:
            pool[0].stdin.close()
            assert pool[0].wait(timeout=60) == 0
        assert capfd.readouterr() == ("", "")
        assert_no_child_process()

    @pytest.mark.parametrize("error", [DataError("subject S1: bad"), NumericalError("diverged")])
    def test_a_worker_error_is_raised_again_in_the_caller(self, tiny_cohort, error):
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(scheme="none", epochs=1, batch_size=16)
        with pytest.raises(type(error)) as raised, fold_pool(2) as pool:
            cross_validate(data, factors, cfg, n_folds=3, pool=pool,
                           model_factory=FailsIn("worker", error))
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        assert_no_child_process()

    def test_a_caller_error_stops_the_worker(self, tiny_cohort):
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(scheme="none", epochs=1, batch_size=16)
        with pytest.raises(DataError, match="caller failed"), fold_pool(2) as pool:
            cross_validate(data, factors, cfg, n_folds=3, pool=pool,
                           model_factory=FailsIn("caller", DataError("caller failed")))
        assert_no_child_process()

    def test_a_worker_without_a_result_names_its_exit_code(self, tiny_cohort):
        data, factors, _ = tiny_cohort
        cfg = TrainConfig(scheme="none", epochs=1, batch_size=16)
        with pytest.raises(RuntimeError, match="fold worker exited with code 7 without a result"):
            with fold_pool(2) as pool:
                cross_validate(data, factors, cfg, n_folds=3, pool=pool,
                               model_factory=FailsIn("worker", 7))
        assert_no_child_process()

    @pytest.mark.parametrize("cpus, threads, folds, jobs", [
        (2, 1, 5, 2), (2, 2, 5, 1), (2, 4, 5, 1), (1, 1, 5, 1), (4, 1, 5, 4), (4, 2, 5, 2),
        (8, 1, 5, 5), (4, 1, 3, 3), (2, None, 5, 1), (64, None, 5, 1)])
    def test_pool_size(self, cpus, threads, folds, jobs):
        assert pool_size(cpus, threads, folds) == jobs


def test_format_mean_std():
    assert format_mean_std([0.6, 0.674]) == "63.7 ± 3.7"
