"""Weighted training of sequence classifiers under every weighting scheme.

`train` is the one training loop. One mini-batch step runs one batched
forward pass, computes the per-sample losses once and feeds two optimizers
from that single backward pass: the model parameters move under the
weighted loss gradient (weights treated as constants, one upstream value per
sample) and the weight-field coefficients move under the loss-plus-hinge
gradient (losses treated as constants). `adam_step` updates the optimizer
moments in place and returns a new parameter vector, which the model copies
into its flat parameters. Scoring outside the step goes through `predict`,
which sorts the subjects by visit count and runs the model over chunks of
`batch_size` of them, so each forward call runs only as many recurrent steps
as its longest member. Each trained model makes one full-cohort pass at the
end of its run; `TrainResult.probs` carries it, and the final objective, JTT
stage one and the CV scoring pass all read it instead of scoring again. Test
rows never enter a training batch, so trained parameters and inferred test
weights are independent of test features and labels.

Schemes (`TrainConfig.scheme`) choose only the weights and whether `a` learns:
    none        unit weights
    spectral    learnable weights c + E a; a starts at zero and takes an Adam
                step after each model step, so lr_a = 0 is uniform weighting
                by c
    only_graph  fixed weights c + E 1 (a pinned to ones, never updated)
    jtt         two stages of the full epoch budget: an unweighted run, then
                a fresh one (seed + 1) weighting the training rows that stage
                one misclassified at threshold 0.5 by jtt_lambda and the rest
                by 1; test rows get no weight (NaN)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import CohortDataset
from .errors import NumericalError
from .factor_graph import SpectralBasis
from .predictor import RecurrentClassifier, bce_grad_prob, bce_loss
from .seeding import rng_for
from .weight_field import WeightField, grad_a, negativity_penalty

SCHEMES = ("none", "spectral", "only_graph", "jtt")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    scheme: str = "spectral"
    epochs: int = 100
    lr_model: float = 1e-4
    lr_a: float = 1e-5
    batch_size: int = 32
    k_neighbors: int = 50
    centering_c: float = 0.65
    m_basis: int | str = "auto"
    jtt_lambda: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for name in ("centering_c", "lr_model", "lr_a", "jtt_lambda"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.lr_model <= 0.0 or self.lr_a < 0.0:
            raise ValueError("learning rates must be positive (lr_a may be 0)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.jtt_lambda < 1.0:
            raise ValueError("jtt_lambda must be >= 1")


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter vector, updated in
    place, plus one scratch vector of the same size."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty_like(self.m)

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(np.zeros(dim), np.zeros(dim))


def adam_step(state: AdamState, params, grads, lr: float) -> np.ndarray:
    """One bias-corrected Adam update; returns the new parameter vector.

    The moments and the scratch vector are updated in place; `params` and
    `grads` are left untouched.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != state.m.shape or grads.shape != state.m.shape:
        raise ValueError("parameter/gradient shape does not match optimizer state")
    state.step += 1
    m, v, tmp = state.m, state.v, state.scratch
    m *= ADAM_BETA1
    m += np.multiply(grads, 1.0 - ADAM_BETA1, out=tmp)
    v *= ADAM_BETA2
    np.multiply(grads, 1.0 - ADAM_BETA2, out=tmp)
    v += np.multiply(tmp, grads, out=tmp)
    # params - lr * m_hat / (sqrt(v_hat) + eps), one operation at a time.
    np.divide(v, 1.0 - ADAM_BETA2 ** state.step, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    update = np.divide(m, 1.0 - ADAM_BETA1 ** state.step)
    update *= lr
    update /= tmp
    return np.subtract(params, update, out=update)


@dataclass
class TrainHistory:
    epoch_losses: list[float] = field(default_factory=list)
    initial_objective: float = float("nan")
    final_objective: float = float("nan")


@dataclass
class TrainResult:
    model: object
    weight_field: WeightField | None
    history: TrainHistory
    probs: np.ndarray     # (n_samples,) final-model probability of every subject
    weights: np.ndarray   # (n_samples,) weight of every subject, NaN where the scheme defines none


def default_model_factory(feature_width: int, rng: np.random.Generator):
    return RecurrentClassifier(feature_width, hidden=64, fc=32, rng=rng)


def _train_rows(data: CohortDataset, split) -> np.ndarray:
    """The sorted training rows of a (train rows, test rows) split, which must
    partition the sample indices with at least one training row."""
    train_rows, test_rows = (np.asarray(rows, dtype=np.intp) for rows in split)
    merged = np.sort(np.concatenate([train_rows, test_rows]))
    if not np.array_equal(merged, np.arange(data.n_samples)):
        raise ValueError("split must partition the sample indices")
    if train_rows.size == 0:
        raise ValueError("empty training split")
    return np.sort(train_rows)


def predict(data: CohortDataset, model, rows, chunk: int) -> np.ndarray:
    """Probabilities for the subjects in `rows`, in the order given.

    The rows are stable-sorted by visit count and scored `chunk` sequences
    per forward call, so a call runs only as many recurrent steps as its
    longest member; each result is written back to its caller's position.
    """
    rows = np.asarray(rows, dtype=np.intp)
    subjects = data.subjects
    by_length = np.argsort([subjects[i].visits.shape[0] for i in rows], kind="stable")
    probs = np.empty(rows.size)
    for start in range(0, rows.size, chunk):
        pos = by_length[start:start + chunk]
        probs[pos] = model.forward([subjects[i].visits for i in rows[pos]])[0]
    return probs


def _objective(losses, weights) -> float:
    """Mean per-sample weighted loss plus hinge penalty."""
    return (float(weights @ losses) + negativity_penalty(weights)) / len(losses)


def train(data: CohortDataset, cfg: TrainConfig, split, basis: SpectralBasis | None = None,
          model_factory=default_model_factory) -> TrainResult:
    """Train one model under `cfg.scheme` on the training rows of `split`.

    Every scheme runs this one loop on the same weighted loss. `none` and
    `jtt` use a fixed weight vector and never touch a weight field;
    `spectral` and `only_graph` need a `basis` over every sample. Epoch
    shuffling and model initialization draw from named substreams of the
    seed only, never from data values.
    """
    train_rows = _train_rows(data, split)
    seed, fld, learn_a = cfg.seed, None, False
    if cfg.scheme in ("spectral", "only_graph"):
        if basis is None or basis.n_samples != data.n_samples:
            raise ValueError("basis rows must cover every sample")
        spectral = cfg.scheme == "spectral"
        m = basis.m_count
        fld = WeightField(cfg.centering_c, np.zeros(m) if spectral else np.ones(m), basis)
        learn_a = spectral and cfg.lr_a != 0.0 and m != 0
        opt_a = AdamState.zeros(m)
    elif cfg.scheme == "jtt":
        stage1 = train(data, replace(cfg, scheme="none"), split, model_factory=model_factory)
        correct = (stage1.probs[train_rows] >= 0.5) == (data.labels[train_rows] == 1)
        fixed = np.full(data.n_samples, np.nan)
        fixed[train_rows] = np.where(correct, 1.0, cfg.jtt_lambda)
        seed += 1
    else:
        fixed = np.ones(data.n_samples)

    model = model_factory(data.feature_width, rng_for(seed, "init"))
    opt = AdamState.zeros(model.n_params)
    shuffle = rng_for(seed, "shuffle")
    labels = data.labels
    weights_of = fixed.__getitem__ if fld is None else fld.weights
    history = TrainHistory()
    # Overflow is caught by the checks on the objective, the activations and
    # the final parameters, each of which raises NumericalError.
    with np.errstate(over="ignore", invalid="ignore"):
        probs = predict(data, model, train_rows, cfg.batch_size)
        history.initial_objective = _objective(bce_loss(probs, labels[train_rows]),
                                               weights_of(train_rows))

        for epoch in range(cfg.epochs):
            order = shuffle.permutation(train_rows)
            batch_objectives = []
            for start in range(0, order.size, cfg.batch_size):
                rows = order[start:start + cfg.batch_size]
                b = rows.size
                w = weights_of(rows)
                probs, cache = model.forward([data.subjects[i].visits for i in rows])
                losses = bce_loss(probs, labels[rows])
                objective = _objective(losses, w)
                if not math.isfinite(objective):
                    raise NumericalError(f"non-finite objective at epoch {epoch}")
                batch_objectives.append(objective)
                grad = model.backward(cache, w * bce_grad_prob(probs, labels[rows]) / b)
                model.set_flat_params(adam_step(opt, model.flat_params(), grad, cfg.lr_model))
                if learn_a:
                    g = grad_a(fld, losses, rows) / b
                    fld.coeffs_a = adam_step(opt_a, fld.coeffs_a, g, cfg.lr_a)
            # The mean of finite batch objectives can still overflow.
            epoch_loss = float(np.mean(batch_objectives))
            if not math.isfinite(epoch_loss):
                raise NumericalError(f"non-finite objective at epoch {epoch}")
            history.epoch_losses.append(epoch_loss)

        if not np.all(np.isfinite(model.flat_params())):
            raise NumericalError("non-finite model parameters after training")
        probs = predict(data, model, np.arange(data.n_samples), cfg.batch_size)
        history.final_objective = _objective(bce_loss(probs[train_rows], labels[train_rows]),
                                             weights_of(train_rows))
    return TrainResult(model, fld, history, probs, fixed if fld is None else fld.weights())


# The per-scheme entry points: each is `train` under its scheme.

def train_spectral(data: CohortDataset, basis: SpectralBasis, cfg: TrainConfig, split,
                   model_factory=default_model_factory) -> TrainResult:
    return train(data, replace(cfg, scheme="spectral"), split, basis, model_factory)


def train_baseline_none(data: CohortDataset, cfg: TrainConfig, split,
                        model_factory=default_model_factory) -> TrainResult:
    return train(data, replace(cfg, scheme="none"), split, None, model_factory)


def train_only_graph(data: CohortDataset, basis: SpectralBasis, cfg: TrainConfig, split,
                     model_factory=default_model_factory) -> TrainResult:
    return train(data, replace(cfg, scheme="only_graph"), split, basis, model_factory)


def train_jtt(data: CohortDataset, cfg: TrainConfig, split,
              model_factory=default_model_factory) -> TrainResult:
    return train(data, replace(cfg, scheme="jtt"), split, None, model_factory)
