"""Acceptance gate: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the end-to-end criteria use the default synthetic cohort in place of
restricted clinical data.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import small_gru_factory
from specweight.cli import main as cli_main
from specweight.dataset import CohortDataset, Subject
from specweight.evaluation import (
    balanced_accuracy,
    cross_validate,
    f1_score,
    mann_whitney_u,
    median_split_gap,
)
from specweight.factor_graph import FactorTable, SpectralBasis, basis_from_factors
from specweight.predictor import RecurrentClassifier, bce_grad_prob, bce_loss
from specweight.synth import SynthSpec, generate
from specweight.training import (
    TrainConfig,
    train_baseline_none,
    train_jtt,
    train_only_graph,
    train_spectral,
)
from specweight.weight_field import WeightField, grad_a, negativity_penalty


def test_criterion_1_spectral_identity_suite():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    for trial in range(20):
        n = int(rng.integers(50, 401))
        k = int(rng.choice([10, 50]))
        if k >= n:
            k = 10
        factors = FactorTable(rng.normal(size=(n, 3)), ("a", "b", "c"))
        basis, info = basis_from_factors(factors, k=k, m="auto")
        e = basis.basis
        lap = info["laplacian"]
        assert np.max(np.abs(e.T @ e - np.eye(basis.m_count))) < 1e-8
        assert np.max(np.abs(e.sum(axis=0))) < 1e-8
        assert np.max(np.abs(lap @ e - e * basis.eigenvalues)) < 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: spectral identities on 20 graphs in {elapsed:.1f}s")


def test_criterion_2_centering_identity():
    rng = np.random.default_rng(77)
    factors = FactorTable(rng.normal(size=(150, 3)), ("a", "b", "c"))
    basis, info = basis_from_factors(factors, k=10, m=25)
    lap = info["laplacian"]
    n = basis.n_samples
    worst_sum, worst_quad = 0.0, 0.0
    for _ in range(100):
        a = rng.normal(size=basis.m_count)
        c = float(rng.uniform(-2.0, 2.0))
        w = WeightField(c, a, basis).weights()
        worst_sum = max(worst_sum, abs(w.sum() - n * c))
        dev = w - c
        worst_quad = max(worst_quad, abs(dev @ lap @ dev - np.sum(basis.eigenvalues * a * a)))
    assert worst_sum < 1e-10
    assert worst_quad < 1e-8
    print(f"\nACCEPTANCE 2 PASS: centering |sum - N c| <= {worst_sum:.2e}, "
          f"smoothness defect <= {worst_quad:.2e}")


def test_criterion_3_joint_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    factors = FactorTable(rng.normal(size=(6, 3)), ("a", "b", "c"))
    basis, _ = basis_from_factors(factors, k=2, m=2)
    data = CohortDataset(tuple(
        Subject(f"S{i}", rng.normal(size=(int(rng.integers(1, 4)), 4)), int(rng.integers(0, 2)))
        for i in range(6)
    ))

    def check_point(c, a_scale):
        model = RecurrentClassifier(4, hidden=5, fc=4, rng=np.random.default_rng(8))
        a = a_scale * rng.normal(size=2)
        fld = WeightField(c, a.copy(), basis)
        assert np.min(np.abs(fld.weights())) > 1e-3  # no sample sits on the hinge kink

        def objective(theta, coeffs):
            model.set_flat_params(theta)
            w = c + basis.basis @ coeffs
            total = sum(w[i] * bce_loss(model.forward([s.visits])[0][0], s.label)
                        for i, s in enumerate(data.subjects))
            return total + negativity_penalty(w)

        theta0 = model.flat_params()
        w0 = fld.weights()
        losses = np.empty(6)
        grad_theta = np.zeros(model.n_params)
        for i, s in enumerate(data.subjects):
            p, cache = model.forward([s.visits])
            losses[i] = bce_loss(p[0], s.label)
            grad_theta += w0[i] * model.backward(cache, bce_grad_prob(p[0], s.label))
        grad_coeffs = grad_a(fld, losses, rows=np.arange(6))
        analytic = np.concatenate([grad_theta, grad_coeffs])

        h = 1e-5
        fd = np.empty(analytic.size)
        for j in range(model.n_params):
            up, down = theta0.copy(), theta0.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (objective(up, a) - objective(down, a)) / (2 * h)
        for j in range(2):
            up, down = a.copy(), a.copy()
            up[j] += h
            down[j] -= h
            fd[model.n_params + j] = (objective(theta0, up) - objective(theta0, down)) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic) + np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4
        return rel

    rel_plain = check_point(c=0.65, a_scale=0.1)   # hinge inactive
    rel_hinge = check_point(c=-0.5, a_scale=0.05)  # hinge active on every sample
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: joint gradient rel err {rel_plain:.2e} (plain), "
          f"{rel_hinge:.2e} (hinge) in {elapsed:.1f}s")


def test_criterion_4_metric_oracles():
    checked_metrics = 0
    for n in range(2, 9):
        for y_bits in itertools.product((0, 1), repeat=n):
            if len(set(y_bits)) < 2:
                continue
            for p_bits in itertools.product((0, 1), repeat=n):
                n_pos = sum(y_bits)
                n_neg = n - n_pos
                pos_hit = sum(1 for yy, pp in zip(y_bits, p_bits) if yy and pp)
                neg_hit = sum(1 for yy, pp in zip(y_bits, p_bits) if not yy and not pp)
                oracle_bacc = (pos_hit / n_pos + neg_hit / n_neg) / 2
                tp = pos_hit
                fp = sum(p_bits) - tp
                fn = n_pos - tp
                oracle_f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
                assert abs(balanced_accuracy(y_bits, p_bits) - oracle_bacc) < 1e-12
                assert abs(f1_score(y_bits, p_bits) - oracle_f1) < 1e-12
                checked_metrics += 1

    multisets = {size: list(itertools.combinations_with_replacement(range(1, 7), size))
                 for size in range(1, 7)}
    checked_u = 0
    for na in range(1, 7):
        for nb in range(1, 9 - na):
            if nb > 6:
                continue
            for a in multisets[na]:
                for b in multisets[nb]:
                    wins = sum(1.0 if x > y else 0.5 if x == y else 0.0
                               for x in a for y in b)
                    oracle_u = min(wins, na * nb - wins)
                    u, p = mann_whitney_u(a, b)
                    assert u == oracle_u
                    assert 0.0 <= p <= 1.0
                    checked_u += 1
    print(f"\nACCEPTANCE 4 PASS: {checked_metrics} BACC/F1 instances, "
          f"{checked_u} rank-test instances match enumeration")


def test_criterion_5_transductive_isolation():
    data, factors, _ = generate(SynthSpec(n_subjects=60, feature_width=6, seed=31))
    basis, _ = basis_from_factors(factors, k=8, m=4)
    train_rows, test_rows = np.arange(45), np.arange(45, 60)
    cfg = TrainConfig(scheme="spectral", epochs=3, batch_size=16,
                      lr_model=1e-3, lr_a=1e-4, seed=7)
    ref = train_spectral(data, basis, cfg, (train_rows, test_rows))

    rng = np.random.default_rng(999)
    subjects = list(data.subjects)
    for i in test_rows:
        s = subjects[i]
        subjects[i] = Subject(s.subject_id, rng.normal(scale=100.0, size=s.visits.shape),
                              1 - s.label)
    scrambled = CohortDataset(tuple(subjects))
    alt = train_spectral(scrambled, basis, cfg, (train_rows, test_rows))

    assert np.array_equal(ref.model.flat_params(), alt.model.flat_params())
    assert np.array_equal(ref.weights[test_rows], alt.weights[test_rows])
    print("\nACCEPTANCE 5 PASS: trained parameters and test weights are bit-identical "
          "under test-row scrambling")


def test_criterion_6_synthetic_heterogeneity_recovery():
    start = time.perf_counter()
    seed = 2024
    data, factors, groups = generate(SynthSpec(seed=seed))
    cfg = TrainConfig(scheme="spectral", epochs=100, lr_model=1e-4, lr_a=1e-5,
                      batch_size=32, k_neighbors=50, centering_c=0.65,
                      m_basis="auto", seed=seed)
    run_spectral = cross_validate(data, factors, cfg, n_folds=5)
    run_none = cross_validate(
        data, None, TrainConfig(scheme="none", epochs=100, seed=seed), n_folds=5)

    rows, _, _, _, w = run_spectral.pooled_test()
    pooled_groups = np.array([groups[i] for i in rows])
    _, p_value = mann_whitney_u(w[pooled_groups == "low"], w[pooled_groups == "high"])
    assert p_value < 0.01

    gap = median_split_gap(run_spectral)
    assert not gap.degenerate
    assert gap.gap_points >= 5.0

    bacc_spectral = run_spectral.fold_bacc.mean()
    bacc_none = run_none.fold_bacc.mean()
    assert bacc_spectral >= bacc_none - 0.01

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 6 PASS: weight separation p={p_value:.2e}, "
          f"median-split gap {gap.gap_points:.1f} points, "
          f"BACC spectral {100 * bacc_spectral:.1f} vs none {100 * bacc_none:.1f}, "
          f"{elapsed:.0f}s")


def test_criterion_7_baseline_contracts():
    data, factors, _ = generate(SynthSpec(n_subjects=60, feature_width=6, seed=41))
    basis, _ = basis_from_factors(factors, k=8, m=4)
    split = (np.arange(40), np.arange(40, 60))

    jtt = train_jtt(data, TrainConfig(scheme="jtt", epochs=2, batch_size=16,
                                      jtt_lambda=2.0, seed=3), split,
                    model_factory=small_gru_factory)
    assert set(np.unique(jtt.weights[split[0]])) <= {1.0, 2.0}

    short = train_only_graph(data, basis, TrainConfig(scheme="only_graph", epochs=1,
                             batch_size=16, seed=3), split, model_factory=small_gru_factory)
    long = train_only_graph(data, basis, TrainConfig(scheme="only_graph", epochs=4,
                            batch_size=16, seed=3), split, model_factory=small_gru_factory)
    assert np.array_equal(short.weight_field.weights(), long.weight_field.weights())
    assert np.array_equal(short.weight_field.coeffs_a, np.ones(basis.m_count))

    none = train_baseline_none(data, TrainConfig(scheme="none", epochs=3, batch_size=16,
                               seed=5), split, model_factory=small_gru_factory)
    empty = train_spectral(data, SpectralBasis.empty(60),
                           TrainConfig(scheme="spectral", epochs=3, batch_size=16,
                                       centering_c=1.0, m_basis=0, seed=5),
                           split, model_factory=small_gru_factory)
    assert np.array_equal(none.model.flat_params(), empty.model.flat_params())
    assert none.history.epoch_losses == empty.history.epoch_losses
    print("\nACCEPTANCE 7 PASS: jtt weights in {1, 2}, graph-only weights frozen, "
          "uniform scheme identical to empty-basis weighting")


def test_criterion_8_sweep_grid_shape(tmp_path):
    out_synth = tmp_path / "cohort"
    assert cli_main(["synth", "--out", str(out_synth), "--n-subjects", "120",
                     "--feature-width", "8", "--seed", "17"]) == 0
    sweep_args = ["--cohort", str(out_synth / "cohort.csv"), "--epochs", "2",
                  "--batch", "16", "--m", "3", "--seed", "13"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    start = time.perf_counter()
    assert cli_main(["sweep", "--out", str(out_a)] + sweep_args) == 0
    assert cli_main(["sweep", "--out", str(out_b)] + sweep_args) == 0
    elapsed = time.perf_counter() - start

    grid = (out_a / "sweep_grid.csv").read_text().strip().splitlines()
    header, rows = grid[0].split(","), [r.split(",") for r in grid[1:]]
    assert len(rows) == 25
    ks = [int(r[0]) for r in rows]
    cs = [float(r[1]) for r in rows]
    assert sorted(set(ks)) == [10, 30, 50, 75, 100]
    assert sorted(set(cs)) == [0.5, 0.65, 0.7, 0.75, 1.0]
    gap_col = header.index("gap_points")
    assert all(np.isfinite(float(r[gap_col])) for r in rows)
    assert (out_a / "sweep_grid.csv").read_bytes() == (out_b / "sweep_grid.csv").read_bytes()
    print(f"\nACCEPTANCE 8 PASS: full 5x5 grid, finite and deterministic, {elapsed:.0f}s "
          "for two runs")
