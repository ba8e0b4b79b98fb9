"""Sequence-to-one binary classifiers with hand-written gradients.

The main model runs a gated recurrent layer over each subject's visit
sequence in chronological order, then two fully connected layers producing a
single logit. Both models work on a mini-batch: `forward` takes a list of
`(visits, features)` arrays of any lengths and returns one probability per
sequence plus a cache; `backward` takes one upstream value per sequence and
returns the parameter gradient summed over the batch. The recurrence packs
the batch longest first, so the rows still running at each step form a
prefix and finished rows keep their hidden state (the pack_padded_sequence
idiom). A last-visit logistic model with the same interface serves as a
cheap stand-in where test suites need many training runs.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import NumericalError

PROB_CLAMP = 1e-7
CHECKPOINT_MAGIC = b"SCW1"


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def bce_loss(p, y):
    """Elementwise binary cross-entropy, probability clamped to [1e-7, 1 - 1e-7].

    Scalars give a scalar; NaN probabilities give NaN.
    """
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))


def bce_grad_prob(p, y):
    """Elementwise d bce_loss / d p; zero where the clamp is active, NaN for NaN."""
    p = np.asarray(p, dtype=np.float64)
    clamped = (p <= PROB_CLAMP) | (p >= 1.0 - PROB_CLAMP)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = (p - y) / (p * (1.0 - p))
    return np.where(clamped, 0.0, grad)[()]


def _as_batch(sequences, width: int) -> list[np.ndarray]:
    """Validated float64 arrays from a non-empty list of (visits, width) sequences."""
    batch = [np.asarray(s, dtype=np.float64) for s in sequences]
    if not batch:
        raise ValueError("empty batch: expected at least one sequence")
    for x in batch:
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != width:
            raise ValueError(f"expected (visits, {width}) sequences, got shape {x.shape}")
    return batch


class RecurrentClassifier:
    """Gated recurrent layer plus two dense layers, logistic output.

    Gate equations per visit x_t (update z, reset r, candidate via tanh):

        z_t = sigmoid(Wz x_t + Uz h + bz)
        r_t = sigmoid(Wr x_t + Ur h + br)
        g_t = tanh(Wh x_t + Uh (r_t * h) + bh)
        h   = (1 - z_t) * g_t + z_t * h

    followed by ReLU(W1 h + b1) and a scalar logit W2 (.) + b2. Parameters
    initialize uniformly in +-1/sqrt(fan_in) from the provided generator.
    """

    def __init__(self, feature_width: int, hidden: int = 64, fc: int = 32,
                 rng: np.random.Generator | None = None):
        if feature_width < 1 or hidden < 1 or fc < 1:
            raise ValueError("all layer widths must be >= 1")
        self.feature_width = feature_width
        self.hidden = hidden
        self.fc = fc
        rng = rng if rng is not None else np.random.default_rng(0)

        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        f, h, k = feature_width, hidden, fc
        self.wz = uniform((h, f), f)
        self.uz = uniform((h, h), h)
        self.bz = uniform((h,), h)
        self.wr = uniform((h, f), f)
        self.ur = uniform((h, h), h)
        self.br = uniform((h,), h)
        self.wh = uniform((h, f), f)
        self.uh = uniform((h, h), h)
        self.bh = uniform((h,), h)
        self.w1 = uniform((k, h), h)
        self.b1 = uniform((k,), h)
        self.w2 = uniform((k,), k)
        self.b2 = uniform((1,), k)

    def _params(self):
        return [self.wz, self.uz, self.bz, self.wr, self.ur, self.br,
                self.wh, self.uh, self.bh, self.w1, self.b1, self.w2, self.b2]

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self._params())

    def flat_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self._params()])

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        offset = 0
        for p in self._params():
            p[...] = flat[offset:offset + p.size].reshape(p.shape)
            offset += p.size

    def forward(self, sequences):
        """Probabilities for a batch of visit sequences plus the cache for backward."""
        batch = _as_batch(sequences, self.feature_width)
        lengths = np.array([x.shape[0] for x in batch])
        # Longest first; the stable sort keeps ties in input order.
        order = np.argsort(-lengths, kind="stable")
        # running[t]: rows of the sorted batch that still have a visit at step t.
        running = (lengths[order][None, :] > np.arange(lengths.max())[:, None]).sum(axis=1)
        # Packed time-major layout: step t occupies rows offsets[t]:offsets[t+1],
        # holding visit t of the first running[t] sorted sequences.
        offsets = np.concatenate([[0], np.cumsum(running)])
        starts = np.cumsum(lengths) - lengths
        packed = np.concatenate([starts[order[:n]] + t for t, n in enumerate(running)])
        x = np.concatenate(batch)[packed]

        # Input projections for all visits at once; the recurrence stays sequential.
        pz = x @ self.wz.T + self.bz
        pr = x @ self.wr.T + self.br
        ph = x @ self.wh.T + self.bh
        h_prev = np.empty_like(pz)
        z = np.empty_like(pz)
        r = np.empty_like(pz)
        g = np.empty_like(pz)
        h = np.zeros((len(batch), self.hidden))
        for t, n in enumerate(running):
            rows = slice(offsets[t], offsets[t + 1])
            h_prev[rows] = h[:n]
            hp = h_prev[rows]
            z[rows] = _sigmoid(pz[rows] + hp @ self.uz.T)
            r[rows] = _sigmoid(pr[rows] + hp @ self.ur.T)
            g[rows] = np.tanh(ph[rows] + (r[rows] * hp) @ self.uh.T)
            h[:n] = (1.0 - z[rows]) * g[rows] + z[rows] * hp
        a1 = h @ self.w1.T + self.b1
        q = np.maximum(a1, 0.0)
        logits = q @ self.w2 + self.b2[0]
        if not np.all(np.isfinite(logits)):
            raise NumericalError("non-finite activation in forward pass")
        p = _sigmoid(logits)
        probs = np.empty_like(p)
        probs[order] = p
        return probs, (x, order, running, offsets, h_prev, z, r, g, h, a1, q, p)

    def backward(self, cache, d_prob) -> np.ndarray:
        """Flat parameter gradient summed over the batch, given d loss / d
        probability per sequence (a scalar applies to every sequence)."""
        x, order, running, offsets, h_prev, z, r, g, h_final, a1, q, p = cache
        d_prob = np.broadcast_to(np.asarray(d_prob, dtype=np.float64), order.shape)[order]
        dlogit = d_prob * p * (1.0 - p)
        dw2 = dlogit @ q
        db2 = np.array([dlogit.sum()])
        da1 = np.outer(dlogit, self.w2) * (a1 > 0.0)
        dw1 = da1.T @ h_final
        db1 = da1.sum(axis=0)
        dh = da1 @ self.w1

        daz = np.empty_like(z)
        dar = np.empty_like(z)
        dah = np.empty_like(z)
        for t in range(len(running) - 1, -1, -1):
            n = running[t]
            rows = slice(offsets[t], offsets[t + 1])
            hp, z_t, r_t, g_t, dh_t = h_prev[rows], z[rows], r[rows], g[rows], dh[:n]
            dz = dh_t * (hp - g_t)
            dg = dh_t * (1.0 - z_t)
            dh_prev = dh_t * z_t

            dah[rows] = dg * (1.0 - g_t * g_t)
            drh = dah[rows] @ self.uh
            dr = drh * hp
            dh_prev += drh * r_t

            daz[rows] = dz * z_t * (1.0 - z_t)
            dh_prev += daz[rows] @ self.uz

            dar[rows] = dr * r_t * (1.0 - r_t)
            dh_prev += dar[rows] @ self.ur

            dh[:n] = dh_prev

        # Input/recurrent weight gradients accumulate over visits as single matmuls.
        dwz = daz.T @ x
        dwr = dar.T @ x
        dwh = dah.T @ x
        duz = daz.T @ h_prev
        dur = dar.T @ h_prev
        duh = dah.T @ (r * h_prev)
        dbz = daz.sum(axis=0)
        dbr = dar.sum(axis=0)
        dbh = dah.sum(axis=0)

        grads = [dwz, duz, dbz, dwr, dur, dbr, dwh, duh, dbh, dw1, db1, dw2, db2]
        return np.concatenate([g.ravel() for g in grads])


class LogisticFallback:
    """Logistic regression on the final visit; same interface as the GRU.

    Exists so property suites that need dozens of training runs can exercise
    the full training machinery without paying for backprop through time.
    """

    def __init__(self, feature_width: int, rng: np.random.Generator | None = None):
        if feature_width < 1:
            raise ValueError("feature_width must be >= 1")
        self.feature_width = feature_width
        rng = rng if rng is not None else np.random.default_rng(0)
        bound = 1.0 / np.sqrt(feature_width)
        self.w = rng.uniform(-bound, bound, size=feature_width)
        self.b = rng.uniform(-bound, bound, size=1)

    @property
    def n_params(self) -> int:
        return self.feature_width + 1

    def flat_params(self) -> np.ndarray:
        return np.concatenate([self.w, self.b])

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        self.w = flat[:-1].copy()
        self.b = flat[-1:].copy()

    def forward(self, sequences):
        last = np.array([x[-1] for x in _as_batch(sequences, self.feature_width)])
        logits = last @ self.w + self.b[0]
        if not np.all(np.isfinite(logits)):
            raise NumericalError("non-finite activation in forward pass")
        p = _sigmoid(logits)
        return p, (last, p)

    def backward(self, cache, d_prob) -> np.ndarray:
        last, p = cache
        dlogit = np.broadcast_to(np.asarray(d_prob, dtype=np.float64), p.shape) * p * (1.0 - p)
        return np.concatenate([dlogit @ last, [dlogit.sum()]])


def save_checkpoint(model: RecurrentClassifier, path) -> None:
    """Binary checkpoint: magic, layer widths, then the flat parameter vector
    as little-endian float64."""
    flat = model.flat_params().astype("<f8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIIQ", model.feature_width, model.hidden, model.fc, flat.size))
        fh.write(flat.tobytes())


def load_checkpoint(path) -> RecurrentClassifier:
    with open(path, "rb") as fh:
        blob = fh.read()
    header = struct.calcsize("<IIIQ")
    if len(blob) < 4 + header or blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a model checkpoint: {path}")
    f, h, k, count = struct.unpack("<IIIQ", blob[4:4 + header])
    flat = np.frombuffer(blob[4 + header:], dtype="<f8")
    if flat.size != count:
        raise ValueError(f"checkpoint truncated: expected {count} parameters, found {flat.size}")
    model = RecurrentClassifier(f, h, k, rng=np.random.default_rng(0))
    model.set_flat_params(flat.astype(np.float64))
    return model
