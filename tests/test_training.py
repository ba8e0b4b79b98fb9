import numpy as np
import pytest

from conftest import logistic_factory, small_gru_factory
from specweight import training
from specweight.errors import NumericalError
from specweight.factor_graph import SpectralBasis, basis_from_factors
from specweight.predictor import bce_loss
from specweight.synth import SynthSpec, generate
from specweight.training import (
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
from specweight.weight_field import WeightField, negativity_penalty


def half_split(n):
    cut = (2 * n) // 3
    return np.arange(cut), np.arange(cut, n)


@pytest.fixture(scope="module")
def cohort_and_basis(tiny_cohort):
    data, factors, _ = tiny_cohort
    basis, _ = basis_from_factors(factors, k=8, m=4)
    return data, factors, basis


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        state = AdamState.zeros(3)
        params = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(adam_step(state, params, np.zeros(3), 0.1), params)

    def test_first_step_is_signed_lr(self):
        state = AdamState.zeros(3)
        g = np.array([0.5, -3.0, 1e-3])
        new = adam_step(state, np.zeros(3), g, 0.01)
        assert np.allclose(new, -0.01 * np.sign(g), rtol=1e-4)

    def test_three_step_trace_matches_reference(self):
        # independent straight-line reference, no loops or vectorization
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
        g1, g2, g3 = 0.3, -0.1, 0.25
        theta = 1.0
        m = b1 * 0.0 + (1 - b1) * g1
        v = b2 * 0.0 + (1 - b2) * g1 * g1
        theta = theta - lr * (m / (1 - b1 ** 1)) / (np.sqrt(v / (1 - b2 ** 1)) + eps)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2 * g2
        theta = theta - lr * (m / (1 - b1 ** 2)) / (np.sqrt(v / (1 - b2 ** 2)) + eps)
        m = b1 * m + (1 - b1) * g3
        v = b2 * v + (1 - b2) * g3 * g3
        theta = theta - lr * (m / (1 - b1 ** 3)) / (np.sqrt(v / (1 - b2 ** 3)) + eps)

        state = AdamState.zeros(1)
        p = np.array([1.0])
        for g in (g1, g2, g3):
            p = adam_step(state, p, np.array([g]), lr)
        assert p[0] == pytest.approx(theta, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(AdamState.zeros(2), np.zeros(3), np.zeros(3), 0.1)

    def test_leaves_inputs_untouched_and_matches_textbook(self):
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        rng = np.random.default_rng(5)
        state = AdamState.zeros(40)
        params = rng.normal(size=40)
        expected, m, v = params.copy(), np.zeros(40), np.zeros(40)
        for step in range(1, 7):
            grads = rng.normal(size=40) * 10.0 ** rng.uniform(-3, 1)
            params_in, grads_in = params.copy(), grads.copy()
            new = adam_step(state, params, grads, lr)
            assert np.array_equal(params, params_in) and np.array_equal(grads, grads_in)
            assert new is not params
            m = b1 * m + (1 - b1) * grads
            v = b2 * v + (1 - b2) * grads * grads
            expected = expected - lr * (m / (1 - b1 ** step)) / (np.sqrt(v / (1 - b2 ** step)) + eps)
            assert np.max(np.abs(new - expected)) <= 1e-15
            params = new


class TestPredict:
    @pytest.fixture(scope="class")
    def ragged(self):
        """The default cohort with 1-24 visits per subject, a small GRU that
        logs the lengths of every forward batch, and the lengths per row."""
        data, _, _ = generate(SynthSpec(max_visits=24, seed=1))
        model = small_gru_factory(data.feature_width, np.random.default_rng(0))
        forward, model.batches = model.forward, []

        def logged_forward(sequences):
            model.batches.append([len(x) for x in sequences])
            return forward(sequences)

        model.forward = logged_forward
        lengths = np.array([s.visits.shape[0] for s in data.subjects])
        return data, model, lengths

    @staticmethod
    def one_at_a_time(data, model, rows):
        return np.array([model.forward([data.subjects[i].visits])[0][0] for i in rows])

    @pytest.mark.parametrize("chunk", [1, 7, 60, 1000])
    def test_unsorted_ragged_rows_come_back_in_input_order(self, ragged, chunk):
        data, model, lengths = ragged
        rows = np.random.default_rng(3).permutation(data.n_samples)[:60]
        assert lengths[rows].min() <= 2 and lengths[rows].max() == 24
        model.batches.clear()
        probs = predict(data, model, rows, chunk)
        batches = list(model.batches)
        assert probs.shape == (rows.size,)
        assert np.max(np.abs(probs - self.one_at_a_time(data, model, rows))) <= 1e-12
        # Chunks of `chunk` rows, shortest sequences first.
        assert [len(b) for b in batches] == [min(chunk, rows.size - s)
                                             for s in range(0, rows.size, chunk)]
        assert sum(batches, []) == sorted(lengths[rows].tolist())

    def test_equal_length_rows(self, ragged):
        data, model, lengths = ragged
        rows = np.flatnonzero(lengths == 12)[::-1]
        assert rows.size > 7
        probs = predict(data, model, rows, 7)
        assert np.max(np.abs(probs - self.one_at_a_time(data, model, rows))) <= 1e-12


class TestTrainConfig:
    def test_defaults_match_reference_recipe(self):
        cfg = TrainConfig()
        assert cfg.epochs == 100
        assert cfg.lr_model == 1e-4
        assert cfg.lr_a == 1e-5
        assert cfg.k_neighbors == 50
        assert cfg.jtt_lambda == 2.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(scheme="bogus")
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lr_model=0.0)
        with pytest.raises(ValueError):
            TrainConfig(jtt_lambda=0.5)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestSpectral:
    def test_frozen_a_stays_at_centering(self, cohort_and_basis):
        data, _, basis = cohort_and_basis
        cfg = TrainConfig(scheme="spectral", epochs=2, lr_a=0.0, centering_c=0.7,
                          batch_size=16, seed=3)
        result = train_spectral(data, basis, cfg, half_split(data.n_samples),
                                model_factory=logistic_factory)
        assert np.array_equal(result.weight_field.coeffs_a, np.zeros(basis.m_count))
        assert np.all(result.weight_field.weights() == 0.7)

    def test_objective_descends(self):
        # descent sanity oracle on a seeded 60-sample task
        data, factors, _ = generate(SynthSpec(n_subjects=60, feature_width=6, seed=21))
        basis, _ = basis_from_factors(factors, k=8, m=4)
        cfg = TrainConfig(scheme="spectral", epochs=25, lr_model=5e-2, lr_a=1e-3,
                          batch_size=16, centering_c=0.65, seed=4)
        result = train_spectral(data, basis, cfg, half_split(60),
                                model_factory=logistic_factory)
        assert result.history.final_objective < result.history.initial_objective

    def test_coefficients_move_when_trained(self, cohort_and_basis):
        data, _, basis = cohort_and_basis
        cfg = TrainConfig(scheme="spectral", epochs=3, lr_a=1e-3, batch_size=16, seed=5)
        result = train_spectral(data, basis, cfg, half_split(data.n_samples),
                                model_factory=logistic_factory)
        assert np.any(result.weight_field.coeffs_a != 0.0)

    def test_test_rows_never_influence_training(self, cohort_and_basis):
        # transductive isolation, bitwise
        from specweight.dataset import CohortDataset, Subject

        data, _, basis = cohort_and_basis
        train_rows, test_rows = half_split(data.n_samples)
        cfg = TrainConfig(scheme="spectral", epochs=3, lr_a=1e-4, batch_size=16, seed=6)
        ref = train_spectral(data, basis, cfg, (train_rows, test_rows),
                             model_factory=small_gru_factory)

        rng = np.random.default_rng(123)
        subjects = list(data.subjects)
        for i in test_rows:
            s = subjects[i]
            subjects[i] = Subject(s.subject_id,
                                  rng.normal(scale=50.0, size=s.visits.shape),
                                  1 - s.label)
        scrambled = CohortDataset(tuple(subjects))
        alt = train_spectral(scrambled, basis, cfg, (train_rows, test_rows),
                             model_factory=small_gru_factory)

        assert np.array_equal(ref.model.flat_params(), alt.model.flat_params())
        assert np.array_equal(ref.weights[test_rows], alt.weights[test_rows])
        assert np.array_equal(ref.weight_field.coeffs_a, alt.weight_field.coeffs_a)

    def test_none_equals_spectral_with_empty_basis(self, cohort_and_basis):
        data, _, _ = cohort_and_basis
        split = half_split(data.n_samples)
        cfg_none = TrainConfig(scheme="none", epochs=3, batch_size=16, seed=7)
        cfg_spec = TrainConfig(scheme="spectral", epochs=3, batch_size=16,
                               centering_c=1.0, m_basis=0, seed=7)
        a = train_baseline_none(data, cfg_none, split, model_factory=small_gru_factory)
        b = train_spectral(data, SpectralBasis.empty(data.n_samples), cfg_spec, split,
                           model_factory=small_gru_factory)
        assert np.array_equal(a.model.flat_params(), b.model.flat_params())
        assert a.history.epoch_losses == b.history.epoch_losses

    def test_non_finite_objective_aborts(self, cohort_and_basis):
        data, _, basis = cohort_and_basis

        class PoisonedModel:
            n_params = 2

            def __init__(self, feature_width, rng):
                self.params = np.zeros(2)

            def flat_params(self):
                return self.params.copy()

            def set_flat_params(self, flat):
                self.params = np.asarray(flat)

            def forward(self, sequences):
                return np.full(len(sequences), np.nan), None

            def backward(self, cache, d_prob):
                return np.zeros(2)

        cfg = TrainConfig(scheme="spectral", epochs=1, batch_size=16, seed=8)
        with pytest.raises(NumericalError):
            train_spectral(data, basis, cfg, half_split(data.n_samples),
                           model_factory=lambda fw, rng: PoisonedModel(fw, rng))


SCHEMES = ["none", "spectral", "only_graph", "jtt"]


class TestTrainResult:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", ["overlapping", "incomplete"])
    def test_split_must_partition_the_samples(self, cohort_and_basis, scheme, kind):
        data, _, basis = cohort_and_basis
        train_rows, test_rows = half_split(data.n_samples)
        if kind == "overlapping":
            split = (np.append(train_rows, test_rows[0]), test_rows)
        else:
            split = (train_rows, test_rows[1:])
        cfg = TrainConfig(scheme=scheme, epochs=1, batch_size=16, seed=40)
        with pytest.raises(ValueError, match="split must partition the sample indices"):
            train(data, cfg, split, basis, logistic_factory)

    @pytest.mark.parametrize("scheme", ["spectral", "only_graph"])
    def test_graph_schemes_need_a_basis(self, cohort_and_basis, scheme):
        data, _, _ = cohort_and_basis
        cfg = TrainConfig(scheme=scheme, epochs=1, batch_size=16, seed=42)
        with pytest.raises(ValueError, match="basis rows must cover every sample"):
            train(data, cfg, half_split(data.n_samples), None, logistic_factory)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_weight_per_sample(self, cohort_and_basis, scheme):
        data, _, basis = cohort_and_basis
        train_rows, test_rows = half_split(data.n_samples)
        cfg = TrainConfig(scheme=scheme, epochs=1, lr_a=1e-3, batch_size=16, seed=41)
        result = train(data, cfg, (train_rows, test_rows), basis, logistic_factory)
        assert result.weights.shape == (data.n_samples,)
        if scheme == "none":
            assert np.all(result.weights == 1.0)
        elif scheme == "jtt":
            assert np.all(np.isfinite(result.weights[train_rows]))
            assert np.all(np.isnan(result.weights[test_rows]))
        else:
            assert np.array_equal(result.weights, result.weight_field.weights())

    @pytest.mark.parametrize("scheme, lr_a", [("none", 1e-3), ("jtt", 1e-3), ("spectral", 0.0)])
    def test_weight_field_bypass(self, cohort_and_basis, monkeypatch, scheme, lr_a):
        """`none` and `jtt` never reach the weight field, and `spectral` at
        lr_a = 0 never computes a coefficient gradient."""
        def forbidden(*args, **kwargs):
            raise AssertionError("weight field called")

        data, _, basis = cohort_and_basis
        monkeypatch.setattr(training, "grad_a", forbidden)
        if scheme != "spectral":
            monkeypatch.setattr(WeightField, "weights", forbidden)
        cfg = TrainConfig(scheme=scheme, epochs=2, lr_a=lr_a, batch_size=16, seed=43)
        result = train(data, cfg, half_split(data.n_samples), basis, logistic_factory)
        assert len(result.history.epoch_losses) == 2


class TestFullCohortPass:
    def test_probs_are_the_final_model_on_every_subject(self, cohort_and_basis):
        data, _, basis = cohort_and_basis
        cfg = TrainConfig(scheme="spectral", epochs=2, lr_a=1e-3, batch_size=16, seed=30)
        result = train_spectral(data, basis, cfg, half_split(data.n_samples),
                                model_factory=small_gru_factory)
        rescored = predict(data, result.model, np.arange(data.n_samples), 5)
        assert result.probs.shape == (data.n_samples,)
        assert np.max(np.abs(result.probs - rescored)) <= 1e-12

    @pytest.mark.parametrize("scheme", ["spectral", "jtt"])
    def test_final_objective_reads_result_probs(self, cohort_and_basis, scheme):
        data, _, basis = cohort_and_basis
        train_rows, test_rows = half_split(data.n_samples)
        cfg = TrainConfig(scheme=scheme, epochs=2, lr_a=1e-3, batch_size=16, seed=31)
        if scheme == "spectral":
            result = train_spectral(data, basis, cfg, (train_rows, test_rows),
                                    model_factory=small_gru_factory)
            w = result.weight_field.weights(train_rows)
        else:
            result = train_jtt(data, cfg, (train_rows, test_rows),
                               model_factory=small_gru_factory)
            w = result.weights[train_rows]
        losses = bce_loss(result.probs[train_rows], data.labels[train_rows])
        expected = (float(w @ losses) + negativity_penalty(w)) / train_rows.size
        assert result.history.final_objective == expected


class TestBaselineNone:
    def test_zero_init_model_starts_at_ln2(self, cohort_and_basis):
        data, _, _ = cohort_and_basis

        def zeroed_factory(fw, rng):
            model = small_gru_factory(fw, rng)
            model.set_flat_params(np.zeros(model.n_params))
            return model

        cfg = TrainConfig(scheme="none", epochs=1, batch_size=16, seed=20)
        result = train_baseline_none(data, cfg, half_split(data.n_samples),
                                     model_factory=zeroed_factory)
        assert result.history.initial_objective == pytest.approx(np.log(2.0), abs=1e-12)

    def test_deterministic_under_seed(self, cohort_and_basis):
        data, _, _ = cohort_and_basis
        cfg = TrainConfig(scheme="none", epochs=2, batch_size=16, seed=21)
        a = train_baseline_none(data, cfg, half_split(data.n_samples),
                                model_factory=small_gru_factory)
        b = train_baseline_none(data, cfg, half_split(data.n_samples),
                                model_factory=small_gru_factory)
        assert np.array_equal(a.model.flat_params(), b.model.flat_params())
        assert a.history.epoch_losses == b.history.epoch_losses


class TestOnlyGraph:
    def test_weights_constant_across_epochs(self, cohort_and_basis):
        data, _, basis = cohort_and_basis
        split = half_split(data.n_samples)
        short = train_only_graph(data, basis, TrainConfig(scheme="only_graph", epochs=1,
                                 batch_size=16, seed=9), split, model_factory=logistic_factory)
        long = train_only_graph(data, basis, TrainConfig(scheme="only_graph", epochs=4,
                                batch_size=16, seed=9), split, model_factory=logistic_factory)
        assert np.array_equal(short.weight_field.coeffs_a, np.ones(basis.m_count))
        assert np.array_equal(short.weight_field.weights(), long.weight_field.weights())

    def test_mean_weight_is_centering(self, cohort_and_basis):
        data, _, basis = cohort_and_basis
        cfg = TrainConfig(scheme="only_graph", epochs=1, batch_size=16,
                          centering_c=0.65, seed=10)
        result = train_only_graph(data, basis, cfg, half_split(data.n_samples),
                                  model_factory=logistic_factory)
        assert result.weight_field.weights().mean() == pytest.approx(0.65, abs=1e-10)

    def test_empty_basis_degenerates_to_scaled_uniform(self, cohort_and_basis):
        data, _, _ = cohort_and_basis
        split = half_split(data.n_samples)
        basis0 = SpectralBasis.empty(data.n_samples)
        cfg = TrainConfig(scheme="only_graph", epochs=1, batch_size=16,
                          centering_c=0.65, seed=11)
        og = train_only_graph(data, basis0, cfg, split, model_factory=logistic_factory)
        none = train_baseline_none(data, TrainConfig(scheme="none", epochs=1, batch_size=16,
                                   seed=11), split, model_factory=logistic_factory)
        assert np.all(og.weight_field.weights() == 0.65)
        assert og.history.initial_objective == pytest.approx(
            0.65 * none.history.initial_objective, rel=1e-12)


class TestJTT:
    def test_weights_take_only_one_and_lambda(self, tiny_cohort):
        data, _, _ = tiny_cohort
        cfg = TrainConfig(scheme="jtt", epochs=2, jtt_lambda=2.0, batch_size=16, seed=12)
        result = train_jtt(data, cfg, half_split(data.n_samples),
                           model_factory=logistic_factory)
        train_rows, test_rows = half_split(data.n_samples)
        assert set(np.unique(result.weights[train_rows])) <= {1.0, 2.0}
        assert np.all(np.isnan(result.weights[test_rows]))

    def test_stage_two_weights_mark_stage_one_mistakes(self, tiny_cohort):
        data, _, _ = tiny_cohort
        split = half_split(data.n_samples)
        train_rows = split[0]
        cfg = TrainConfig(scheme="jtt", epochs=2, jtt_lambda=3.0, batch_size=16, seed=18)
        result = train_jtt(data, cfg, split, model_factory=small_gru_factory)
        stage1 = train_baseline_none(data, cfg, split, model_factory=small_gru_factory)
        correct = (stage1.probs[train_rows] >= 0.5) == (data.labels[train_rows] == 1)
        assert not correct.all()
        assert np.array_equal(result.weights[train_rows], np.where(correct, 1.0, 3.0))
        assert set(np.unique(result.weights[train_rows])) == {1.0, 3.0}

    def test_lambda_one_equals_unweighted_rerun(self, tiny_cohort):
        data, _, _ = tiny_cohort
        split = half_split(data.n_samples)
        cfg = TrainConfig(scheme="jtt", epochs=2, jtt_lambda=1.0, batch_size=16, seed=13)
        jtt = train_jtt(data, cfg, split, model_factory=small_gru_factory)
        rerun = train_baseline_none(data, TrainConfig(scheme="none", epochs=2,
                                    batch_size=16, seed=14), split,
                                    model_factory=small_gru_factory)
        assert np.array_equal(jtt.model.flat_params(), rerun.model.flat_params())

    def test_perfect_stage_one_gives_unit_weights(self):
        # strongly separable single-visit data: stage one classifies everything
        from specweight.dataset import CohortDataset, Subject

        rng = np.random.default_rng(15)
        direction = rng.normal(size=4)
        direction /= np.linalg.norm(direction)
        subjects = tuple(
            Subject(f"S{i}", ((2 * (i % 2) - 1) * 4.0 * direction
                              + 0.01 * rng.normal(size=4))[None, :], i % 2)
            for i in range(40)
        )
        data = CohortDataset(subjects)
        cfg = TrainConfig(scheme="jtt", epochs=80, lr_model=0.2, jtt_lambda=2.0,
                          batch_size=8, seed=16)
        split = (np.arange(30), np.arange(30, 40))
        result = train_jtt(data, cfg, split, model_factory=logistic_factory)
        assert np.all(result.weights[split[0]] == 1.0)
        rerun = train_baseline_none(data, TrainConfig(scheme="none", epochs=80, lr_model=0.2,
                                    batch_size=8, seed=17), split,
                                    model_factory=logistic_factory)
        assert np.array_equal(result.model.flat_params(), rerun.model.flat_params())
