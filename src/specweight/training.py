"""Weighted training of sequence classifiers, plus baseline weighting schemes.

One mini-batch step runs one batched forward pass, computes the per-sample
losses once and feeds two optimizers from that single backward pass: the
model parameters move under the weighted loss gradient (weights treated as
constants, one upstream value per sample) and the weight-field coefficients
move under the loss-plus-hinge gradient (losses treated as constants).
`adam_step` updates the optimizer moments in place and returns a new
parameter vector, which the model copies into its flat parameters.
Scoring outside the step goes through `predict`, which sorts the subjects
by visit count and runs the model over chunks of `batch_size` of them, so
each forward call runs only as many recurrent steps as its longest member.
Each trained model makes one full-cohort pass at the end of its run;
`TrainResult.probs` carries it, and the final objective, JTT stage one and
the CV scoring pass all read it instead of scoring again. Test rows never
enter a training batch, so trained parameters and inferred test weights are
independent of test features and labels.

Schemes:
    none        uniform unit weights
    spectral    learnable weights c + E a (a starts at zero)
    only_graph  fixed weights c + E 1 (a pinned to ones, never updated)
    jtt         two stage: unweighted run, then a fresh run up-weighting the
                first run's training mistakes by a constant factor
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import CohortDataset
from .errors import NumericalError
from .factor_graph import SpectralBasis
from .predictor import RecurrentClassifier, bce_grad_prob, bce_loss
from .seeding import rng_for
from .weight_field import WeightField, grad_a, negativity_penalty

SCHEMES = ("none", "spectral", "only_graph", "jtt")


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
    m *= state.beta1
    m += np.multiply(grads, 1.0 - state.beta1, out=tmp)
    v *= state.beta2
    np.multiply(grads, 1.0 - state.beta2, out=tmp)
    v += np.multiply(tmp, grads, out=tmp)
    # params - lr * m_hat / (sqrt(v_hat) + eps), one operation at a time.
    np.divide(v, 1.0 - state.beta2 ** state.step, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    update = np.divide(m, 1.0 - state.beta1 ** state.step)
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


def _objective(probs, labels, weights) -> float:
    """Mean per-sample weighted loss plus hinge penalty."""
    losses = bce_loss(probs, labels)
    return (float(weights @ losses) + negativity_penalty(weights)) / len(probs)


def _run_loop(data, cfg, train_rows, seed, model_factory, batch_weights, after_batch=None):
    """Shared mini-batch engine for every scheme.

    `batch_weights(rows)` supplies current per-sample weights for a batch;
    `after_batch(rows, losses)` updates weight-field coefficients, if any.
    Both epoch shuffling and model initialization draw from named substreams
    of `seed` only, never from data values. Returns the model, its history
    and the final model's probability for every subject.
    """
    model = model_factory(data.feature_width, rng_for(seed, "init"))
    opt = AdamState.zeros(model.n_params)
    shuffle = rng_for(seed, "shuffle")
    labels = data.labels
    history = TrainHistory()
    # Overflow is caught by the checks on the objective, the activations and
    # the final parameters, each of which raises NumericalError.
    with np.errstate(over="ignore", invalid="ignore"):
        history.initial_objective = _objective(predict(data, model, train_rows, cfg.batch_size),
                                               labels[train_rows], batch_weights(train_rows))

        for epoch in range(cfg.epochs):
            order = shuffle.permutation(train_rows)
            batch_objectives = []
            for start in range(0, order.size, cfg.batch_size):
                rows = order[start:start + cfg.batch_size]
                b = rows.size
                w = batch_weights(rows)
                probs, cache = model.forward([data.subjects[i].visits for i in rows])
                losses = bce_loss(probs, labels[rows])
                objective = (float(w @ losses) + negativity_penalty(w)) / b
                if not math.isfinite(objective):
                    raise NumericalError(f"non-finite objective at epoch {epoch}")
                batch_objectives.append(objective)
                grad = model.backward(cache, w * bce_grad_prob(probs, labels[rows]) / b)
                model.set_flat_params(adam_step(opt, model.flat_params(), grad, cfg.lr_model))
                if after_batch is not None:
                    after_batch(rows, losses)
            # The mean of finite batch objectives can still overflow.
            epoch_loss = float(np.mean(batch_objectives))
            if not math.isfinite(epoch_loss):
                raise NumericalError(f"non-finite objective at epoch {epoch}")
            history.epoch_losses.append(epoch_loss)

        if not np.all(np.isfinite(model.flat_params())):
            raise NumericalError("non-finite model parameters after training")
        probs = predict(data, model, np.arange(data.n_samples), cfg.batch_size)
        history.final_objective = _objective(probs[train_rows], labels[train_rows],
                                             batch_weights(train_rows))
    return model, history, probs


def train_spectral(data: CohortDataset, basis: SpectralBasis, cfg: TrainConfig, split,
                   model_factory=default_model_factory) -> TrainResult:
    """Joint training of the model and the weight-field coefficients.

    Coefficients start at zero, so epoch 0 begins from uniform weights equal
    to the centering constant; with lr_a = 0 the whole run reduces exactly to
    uniform weighting by c.
    """
    train_rows = _train_rows(data, split)
    if basis.n_samples != data.n_samples:
        raise ValueError("basis rows must cover every sample")
    fld = WeightField.zeros(cfg.centering_c, basis)
    opt_a = AdamState.zeros(basis.m_count)

    def after_batch(rows, losses):
        if cfg.lr_a == 0.0 or basis.m_count == 0:
            return
        g = grad_a(fld, losses, rows) / rows.size
        fld.coeffs_a = adam_step(opt_a, fld.coeffs_a, g, cfg.lr_a)

    model, history, probs = _run_loop(data, cfg, train_rows, cfg.seed, model_factory,
                                      lambda rows: fld.weights(rows), after_batch)
    return TrainResult(model, fld, history, probs, fld.weights())


def train_baseline_none(data: CohortDataset, cfg: TrainConfig, split,
                        model_factory=default_model_factory) -> TrainResult:
    """Unweighted baseline: unit weights, otherwise the identical loop."""
    model, history, probs = _run_loop(data, cfg, _train_rows(data, split), cfg.seed,
                                      model_factory, lambda rows: np.ones(rows.size))
    return TrainResult(model, None, history, probs, np.ones(data.n_samples))


def train_only_graph(data: CohortDataset, basis: SpectralBasis, cfg: TrainConfig, split,
                     model_factory=default_model_factory) -> TrainResult:
    """Graph-only weighting: a pinned to ones, weights fixed for the whole run."""
    train_rows = _train_rows(data, split)
    if basis.n_samples != data.n_samples:
        raise ValueError("basis rows must cover every sample")
    fld = WeightField(cfg.centering_c, np.ones(basis.m_count), basis)
    model, history, probs = _run_loop(data, cfg, train_rows, cfg.seed, model_factory,
                                      lambda rows: fld.weights(rows))
    return TrainResult(model, fld, history, probs, fld.weights())


def train_jtt(data: CohortDataset, cfg: TrainConfig, split,
              model_factory=default_model_factory) -> TrainResult:
    """Two-stage up-weighting of first-stage training mistakes.

    Stage one trains unweighted. Stage two restarts from a fresh
    initialization (seed + 1) with per-sample weights of 1 for samples the
    first model classified correctly at threshold 0.5 and jtt_lambda for the
    ones it missed. Both stages run the full epoch budget. Test rows get no
    weight (NaN).
    """
    train_rows = _train_rows(data, split)
    stage1 = train_baseline_none(data, cfg, split, model_factory)

    weight_by_row = np.full(data.n_samples, np.nan)
    correct = (stage1.probs[train_rows] >= 0.5) == (data.labels[train_rows] == 1)
    weight_by_row[train_rows] = np.where(correct, 1.0, cfg.jtt_lambda)

    model, history, probs = _run_loop(data, cfg, train_rows, cfg.seed + 1, model_factory,
                                      lambda rows: weight_by_row[rows])
    return TrainResult(model, None, history, probs, weight_by_row)
