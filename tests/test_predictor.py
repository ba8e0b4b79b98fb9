import copy
import pickle
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import LogisticFallback
from specweight.predictor import (
    RecurrentClassifier,
    bce_grad_prob,
    bce_loss,
    load_checkpoint,
    save_checkpoint,
)


def prob(model, seq):
    """Probability for one sequence, through a batch of one."""
    return model.forward([seq])[0][0]


def relative_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)


def finite_difference(model, objective, h=1e-6):
    theta = model.flat_params()
    fd = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        model.set_flat_params(up)
        lp = objective()
        model.set_flat_params(down)
        lm = objective()
        fd[i] = (lp - lm) / (2 * h)
    model.set_flat_params(theta)
    return fd


def gradient_check(model, seq, y, h=1e-6):
    p, cache = model.forward([seq])
    analytic = model.backward(cache, bce_grad_prob(p, y))
    fd = finite_difference(model, lambda: bce_loss(prob(model, seq), y), h)
    return relative_error(analytic, fd)


def ragged_batch(rng, width, lengths=(3, 1, 6, 2, 5, 4)):
    """Sequences of the given lengths, deliberately not sorted by length."""
    return [rng.normal(size=(n, width)) for n in lengths]


class TestBCE:
    def test_half(self):
        assert bce_loss(0.5, 0) == pytest.approx(np.log(2.0), abs=1e-12)
        assert bce_loss(0.5, 1) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_clamp_bound(self):
        # worst mismatch saturates at -ln(1e-7), about 16.12
        assert bce_loss(0.0, 1) == pytest.approx(-np.log(1e-7), abs=1e-12)
        assert bce_loss(1.0, 0) == pytest.approx(-np.log(1e-7), abs=1e-9)
        assert bce_loss(0.0, 1) == pytest.approx(16.12, abs=0.01)

    def test_point_eight(self):
        assert bce_loss(0.8, 1) == pytest.approx(-np.log(0.8), abs=1e-12)

    def test_logit_gradient_identity(self):
        # d loss / d logit = p - y for the logistic link
        for p in (0.2, 0.5, 0.93):
            for y in (0, 1):
                assert bce_grad_prob(p, y) * p * (1 - p) == pytest.approx(p - y, abs=1e-12)

    def test_grad_zero_at_clamp(self):
        assert bce_grad_prob(0.0, 1) == 0.0
        assert bce_grad_prob(1.0, 0) == 0.0


class TestRecurrentClassifier:
    def test_zero_parameters_give_half(self):
        m = RecurrentClassifier(4, 5, 3)
        m.set_flat_params(np.zeros(m.n_params))
        p = prob(m, np.random.default_rng(0).normal(size=(3, 4)))
        assert p == 0.5

    def test_single_visit_matches_manual_cell(self):
        rng = np.random.default_rng(1)
        m = RecurrentClassifier(3, 4, 2, rng=rng)
        x = rng.normal(size=(1, 3))

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        h0 = np.zeros(4)
        z = sig(m.wz @ x[0] + m.uz @ h0 + m.bz)
        r = sig(m.wr @ x[0] + m.ur @ h0 + m.br)
        g = np.tanh(m.wh @ x[0] + m.uh @ (r * h0) + m.bh)
        h = (1 - z) * g + z * h0
        q = np.maximum(m.w1 @ h + m.b1, 0.0)
        expected = sig(m.w2 @ q + m.b2[0])
        p = prob(m, x)
        assert p == pytest.approx(expected, abs=1e-12)

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        m = RecurrentClassifier(4, 5, 4, rng=rng)
        seq = rng.normal(size=(3, 4))
        assert gradient_check(m, seq, 1) < 1e-4
        assert gradient_check(m, seq, 0) < 1e-4

    def test_zero_upstream_zero_gradient(self):
        rng = np.random.default_rng(4)
        m = RecurrentClassifier(4, 5, 4, rng=rng)
        p, cache = m.forward([rng.normal(size=(2, 4))])
        assert np.array_equal(m.backward(cache, 0.0), np.zeros(m.n_params))

    def test_forward_deterministic(self):
        seq = np.random.default_rng(5).normal(size=(4, 6))
        m1 = RecurrentClassifier(6, 8, 4, rng=np.random.default_rng(99))
        m2 = RecurrentClassifier(6, 8, 4, rng=np.random.default_rng(99))
        assert np.array_equal(m1.flat_params(), m2.flat_params())
        assert prob(m1, seq) == prob(m2, seq)

    def test_probability_bounds(self):
        rng = np.random.default_rng(6)
        m = RecurrentClassifier(3, 4, 2, rng=rng)
        m.set_flat_params(m.flat_params() * 50.0)  # saturating regime
        for scale in (1.0, 1e3, 1e6):
            p = prob(m, rng.normal(size=(3, 3)) * scale)
            assert 0.0 <= p <= 1.0
            assert np.isfinite(bce_loss(p, 1)) and np.isfinite(bce_loss(p, 0))

    def test_width_mismatch(self):
        m = RecurrentClassifier(4, 5, 3)
        with pytest.raises(ValueError):
            m.forward([np.zeros((2, 3))])
        with pytest.raises(ValueError):
            m.forward([np.zeros((0, 4))])

    def test_flat_param_roundtrip(self):
        rng = np.random.default_rng(7)
        m = RecurrentClassifier(4, 5, 3, rng=rng)
        flat = m.flat_params()
        m.set_flat_params(np.arange(m.n_params, dtype=float))
        m.set_flat_params(flat)
        assert np.array_equal(m.flat_params(), flat)


class TestLogisticFallback:
    def test_zero_parameters_give_half(self):
        lf = LogisticFallback(5)
        lf.set_flat_params(np.zeros(6))
        assert prob(lf, np.ones((3, 5))) == 0.5

    def test_uses_last_visit_only(self):
        rng = np.random.default_rng(8)
        lf = LogisticFallback(4, rng=rng)
        seq = rng.normal(size=(3, 4))
        altered = seq.copy()
        altered[:-1] += 100.0
        assert prob(lf, seq) == prob(lf, altered)

    def test_fits_separable_data(self):
        # oracle run: noiseless separable labels must be nearly perfectly learnable
        from specweight.dataset import CohortDataset, Subject
        from specweight.evaluation import balanced_accuracy
        from specweight.training import TrainConfig, train_baseline_none

        rng = np.random.default_rng(9)
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)
        subjects = []
        for i in range(80):
            y = i % 2
            x = (2 * y - 1) * 2.0 * direction + 0.1 * rng.normal(size=6)
            subjects.append(Subject(f"S{i}", x[None, :], y))
        data = CohortDataset(tuple(subjects))
        cfg = TrainConfig(scheme="none", epochs=60, lr_model=0.1, batch_size=16, seed=1)
        result = train_baseline_none(data, cfg, (np.arange(80), np.zeros(0, dtype=int)),
                                     model_factory=lambda fw, rng: LogisticFallback(fw, rng))
        probs = result.model.forward([s.visits for s in data.subjects])[0]
        assert balanced_accuracy(data.labels, probs) > 0.9

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            LogisticFallback(4).forward([np.zeros((1, 5))])


MODELS = {
    "gru": lambda rng: RecurrentClassifier(4, 5, 3, rng=rng),
    "logistic": lambda rng: LogisticFallback(4, rng=rng),
}


@pytest.mark.parametrize("make", MODELS.values(), ids=MODELS.keys())
class TestBatch:
    def test_gradient_check_ragged_batch(self, make):
        rng = np.random.default_rng(11)
        m = make(rng)
        batch = ragged_batch(rng, 4)
        upstream = rng.normal(size=len(batch))
        _, cache = m.forward(batch)
        analytic = m.backward(cache, upstream)
        fd = finite_difference(m, lambda: float(upstream @ m.forward(batch)[0]))
        assert relative_error(analytic, fd) < 1e-4

    def test_probabilities_match_single_sequence_calls(self, make):
        rng = np.random.default_rng(12)
        m = make(rng)
        batch = ragged_batch(rng, 4)
        probs, _ = m.forward(batch)
        assert probs.shape == (len(batch),)
        np.testing.assert_allclose(probs, [prob(m, seq) for seq in batch], rtol=0, atol=1e-12)

    def test_gradient_is_sum_of_single_sequence_gradients(self, make):
        rng = np.random.default_rng(13)
        m = make(rng)
        batch = ragged_batch(rng, 4)
        upstream = rng.normal(size=len(batch))
        batched = m.backward(m.forward(batch)[1], upstream)
        summed = sum(m.backward(m.forward([seq])[1], u) for seq, u in zip(batch, upstream))
        assert np.linalg.norm(batched - summed) <= 1e-12 * np.linalg.norm(summed)

    def test_scalar_upstream_broadcasts(self, make):
        rng = np.random.default_rng(14)
        m = make(rng)
        _, cache = m.forward(ragged_batch(rng, 4))
        assert np.array_equal(m.backward(cache, 0.5), m.backward(cache, np.full(6, 0.5)))

    def test_permuting_batch_permutes_output(self, make):
        rng = np.random.default_rng(15)
        m = make(rng)
        batch = ragged_batch(rng, 4)
        perm = rng.permutation(len(batch))
        probs, _ = m.forward(batch)
        permuted, _ = m.forward([batch[i] for i in perm])
        np.testing.assert_allclose(permuted, probs[perm], rtol=0, atol=1e-12)

    def test_rejects_empty_batch_and_wrong_width_member(self, make):
        m = make(np.random.default_rng(16))
        with pytest.raises(ValueError):
            m.forward([])
        with pytest.raises(ValueError):
            m.forward([np.zeros((2, 4)), np.zeros((3, 5))])


CHECKPOINT_ORDER = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh", "w1", "b1", "w2", "b2")


def reference_gru(m, batch, upstream):
    """Unfused GRU, one gate, one sequence and one visit at a time.

    Returns the probabilities and the gradient of sum(upstream * probs) in
    checkpoint order.
    """
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    grads = {name: np.zeros_like(getattr(m, name)) for name in CHECKPOINT_ORDER}
    probs = []
    for seq, u in zip(batch, upstream):
        h, steps = np.zeros(m.hidden), []
        for x in seq:
            z = sig(m.wz @ x + m.uz @ h + m.bz)
            r = sig(m.wr @ x + m.ur @ h + m.br)
            g = np.tanh(m.wh @ x + m.uh @ (r * h) + m.bh)
            steps.append((x, h, z, r, g))
            h = (1.0 - z) * g + z * h
        a1 = m.w1 @ h + m.b1
        q = np.maximum(a1, 0.0)
        p = sig(m.w2 @ q + m.b2[0])
        probs.append(p)

        dlogit = u * p * (1.0 - p)
        grads["w2"] += dlogit * q
        grads["b2"] += dlogit
        da1 = dlogit * m.w2 * (a1 > 0.0)
        grads["w1"] += np.outer(da1, h)
        grads["b1"] += da1
        dh = m.w1.T @ da1
        for x, hp, z, r, g in reversed(steps):
            daz = dh * (hp - g) * z * (1.0 - z)
            dah = dh * (1.0 - z) * (1.0 - g * g)
            drh = m.uh.T @ dah
            dar = drh * hp * r * (1.0 - r)
            for gate, d, h_in in (("z", daz, hp), ("r", dar, hp), ("h", dah, r * hp)):
                grads["w" + gate] += np.outer(d, x)
                grads["u" + gate] += np.outer(d, h_in)
                grads["b" + gate] += d
            dh = dh * z + drh * r + m.uz.T @ daz + m.ur.T @ dar
    return np.array(probs), np.concatenate([grads[name].ravel() for name in CHECKPOINT_ORDER])


class TestStackedKernel:
    """The stacked-gate batch kernel against an unfused per-gate loop, and the
    flat parameter vector behind the named arrays."""

    def test_matches_unfused_reference_on_ragged_batch(self):
        rng = np.random.default_rng(21)
        m = RecurrentClassifier(7, 16, 8, rng=rng)
        batch = [rng.normal(size=(n, 7)) for n in rng.permutation(np.arange(1, 25))]
        upstream = rng.normal(size=len(batch))
        probs, cache = m.forward(batch)
        grad = m.backward(cache, upstream)
        ref_probs, ref_grad = reference_gru(m, batch, upstream)
        np.testing.assert_allclose(probs, ref_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12 * np.abs(ref_grad).max())

    def test_flat_params_in_checkpoint_order(self):
        m = RecurrentClassifier(4, 5, 3, rng=np.random.default_rng(22))
        expected = np.concatenate([getattr(m, name).ravel() for name in CHECKPOINT_ORDER])
        assert np.array_equal(m.flat_params(), expected)
        assert m.n_params == expected.size

    def test_named_arrays_see_set_flat_params(self):
        m = RecurrentClassifier(4, 5, 3, rng=np.random.default_rng(23))
        flat = np.arange(m.n_params, dtype=float)
        m.set_flat_params(flat)
        offset = 0
        for name in CHECKPOINT_ORDER:
            arr = getattr(m, name)
            assert np.array_equal(arr.ravel(), flat[offset:offset + arr.size])
            offset += arr.size

    def test_flat_params_is_a_copy(self):
        m = RecurrentClassifier(4, 5, 3, rng=np.random.default_rng(24))
        flat = m.flat_params()
        flat[:] = 0.0
        assert np.any(m.flat_params() != 0.0)
        assert np.any(m.wz != 0.0)


class TestCopiedModel:
    """A deep copy, a pickle round trip and a checkpoint load each give a
    model whose named arrays view its own flat vector."""

    @staticmethod
    def copies(model, tmp_path):
        save_checkpoint(model, tmp_path / "model.bin")
        return {"deepcopy": copy.deepcopy(model),
                "pickle": pickle.loads(pickle.dumps(model)),
                "checkpoint": load_checkpoint(tmp_path / "model.bin")}

    def test_named_arrays_view_the_flat_vector(self, tmp_path):
        model = RecurrentClassifier(3, 4, rng=np.random.default_rng(31))
        batch = [np.full((2, 3), 0.4), np.full((1, 3), -0.7)]
        before = model.forward(batch)[0]
        for how, twin in self.copies(model, tmp_path).items():
            assert np.array_equal(twin.flat_params(), model.flat_params()), how
            assert np.array_equal(twin.forward(batch)[0], before), how
            assert all(np.shares_memory(getattr(twin, name), twin._flat)
                       for name in CHECKPOINT_ORDER), how
            assert not np.shares_memory(twin._flat, model._flat), how
            twin.set_flat_params(np.zeros(twin.n_params))
            assert np.array_equal(twin.forward(batch)[0], [0.5, 0.5]), how
            assert np.array_equal(model.forward(batch)[0], before), how

    def test_checkpoint_load_draws_no_initialization(self, tmp_path, monkeypatch):
        model = RecurrentClassifier(3, 4, rng=np.random.default_rng(32))
        save_checkpoint(model, tmp_path / "model.bin")

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random initialization")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        assert np.array_equal(load_checkpoint(tmp_path / "model.bin").flat_params(),
                              model.flat_params())


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        m = RecurrentClassifier(6, 8, 4, rng=rng)
        path = tmp_path / "model.bin"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert (loaded.feature_width, loaded.hidden, loaded.fc) == (6, 8, 4)
        assert np.array_equal(loaded.flat_params(), m.flat_params())

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_rejects_truncation(self, tmp_path):
        m = RecurrentClassifier(3, 4, 2)
        path = tmp_path / "model.bin"
        save_checkpoint(m, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 10 ** 6)),
        st.tuples(st.just("magic"), st.binary(min_size=4, max_size=4)),
        st.tuples(st.just("count"), st.integers(0, 2 ** 64 - 1)),
        st.tuples(st.just("widths"), st.tuples(*[st.integers(0, 2 ** 32 - 1)] * 3)),
        st.tuples(st.just("length"), st.integers(1, 7), st.booleans())))
    def test_malformed_blob_raises_value_error_only(self, tmp_path_factory, damage):
        """A truncated blob, another magic number, a wrong parameter count,
        widths that do not match the count, or a payload whose length is not
        a multiple of 8 bytes: load_checkpoint raises ValueError and nothing
        else (no MemoryError from allocating a model of absurd widths)."""
        path = tmp_path_factory.mktemp("ckpt") / "model.bin"
        model = RecurrentClassifier(3, 4, 2)
        save_checkpoint(model, path)
        blob = path.read_bytes()
        kind, value, *rest = damage
        if kind == "truncate":
            blob = blob[:value % len(blob)]
        elif kind == "magic":
            assume(value != blob[:4])
            blob = value + blob[4:]
        elif kind == "count":
            assume(value != model.n_params)
            blob = blob[:16] + struct.pack("<Q", value) + blob[24:]
        elif kind == "widths":
            f, h, k = value  # other widths with as many parameters make a valid file
            assume(min(value) < 1 or 3 * h * (f + h + 1) + k * (h + 2) + 1 != model.n_params)
            blob = blob[:4] + struct.pack("<III", *value) + blob[16:]
        else:
            blob = blob + b"\x00" * value if rest[0] else blob[:-value]
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            load_checkpoint(path)
