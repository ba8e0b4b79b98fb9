"""A sequence-to-one binary classifier with hand-written gradients.

The model runs a gated recurrent layer over each subject's visit
sequence in chronological order, then two fully connected layers producing a
single logit. It works on a mini-batch: `forward` takes a list of
`(visits, features)` arrays of any lengths and returns one probability per
sequence plus a cache; `backward` takes one upstream value per sequence and
returns the parameter gradient summed over the batch. The recurrence packs
the batch longest first, so the rows still running at each step form a
prefix and finished rows keep their hidden state (the pack_padded_sequence
idiom). The gate weights are stacked, the usual RNN kernel layout: one
matmul against [Wz; Wr; Wh] projects every packed visit onto all three
gates, and each step makes one matmul against [Uz; Ur] for the update and
reset gates together. The parameter arrays are views into one flat vector in
checkpoint order, and `backward` writes its gradient into one flat buffer in
the same order.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import NumericalError

PROB_CLAMP = 1e-7
CHECKPOINT_MAGIC = b"SCW1"


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of the float64 array `x`, computed in place and returned.

    0.5 * tanh(x / 2) + 0.5 is the logistic function with one transcendental:
    exact at 0, and it cannot overflow.
    """
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


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
    are copied from `flat` if given, else drawn uniformly in +-1/sqrt(fan_in)
    from the provided generator. The attributes `wz` ... `b2` are views into
    one flat float64 vector laid out in checkpoint order, so copying
    parameters in or out is one copy. A copied or pickled model is rebuilt
    from its widths and that vector, so its attributes stay views.
    """

    def __init__(self, feature_width: int, hidden: int = 64, fc: int = 32,
                 rng: np.random.Generator | None = None, flat: np.ndarray | None = None):
        if feature_width < 1 or hidden < 1 or fc < 1:
            raise ValueError("all layer widths must be >= 1")
        self.feature_width = feature_width
        self.hidden = hidden
        self.fc = fc

        f, h, k = feature_width, hidden, fc
        bf, bh, bk = (1.0 / np.sqrt(fan_in) for fan_in in (f, h, k))
        # (name, shape, init bound) in checkpoint order, which is also the draw order.
        layout = [
            ("wz", (h, f), bf), ("uz", (h, h), bh), ("bz", (h,), bh),
            ("wr", (h, f), bf), ("ur", (h, h), bh), ("br", (h,), bh),
            ("wh", (h, f), bf), ("uh", (h, h), bh), ("bh", (h,), bh),
            ("w1", (k, h), bh), ("b1", (k,), bh), ("w2", (k,), bk), ("b2", (1,), bk),
        ]
        self._spans, offset = [], 0
        for _, shape, _ in layout:
            size = math.prod(shape)
            self._spans.append((slice(offset, offset + size), shape))
            offset += size
        if flat is None:
            rng = rng if rng is not None else np.random.default_rng(0)
            flat = np.concatenate([rng.uniform(-b, b, math.prod(shape)) for _, shape, b in layout])
        self._flat = np.empty(offset)
        self.set_flat_params(flat)
        for (name, _, _), view in zip(layout, self._views(self._flat)):
            setattr(self, name, view)

    def __reduce__(self):
        return type(self), (self.feature_width, self.hidden, self.fc, None, self._flat)

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """One view of `flat` per parameter array, in checkpoint order."""
        return [flat[span].reshape(shape) for span, shape in self._spans]

    @property
    def n_params(self) -> int:
        return self._flat.size

    def flat_params(self) -> np.ndarray:
        return self._flat.copy()

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        self._flat[...] = flat

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

        # One matmul projects every visit onto the stacked gates, columns
        # [z | r | candidate]; each step then makes one recurrent matmul for
        # z and r together and one for the candidate. z, r and g are kept in
        # contiguous per-gate arrays: backward's elementwise recursion runs
        # slower on strided views of one stacked array.
        nh = self.hidden
        proj = x @ np.concatenate((self.wz, self.wr, self.wh)).T
        proj += np.concatenate((self.bz, self.br, self.bh))
        u_zr = np.concatenate((self.uz, self.ur)).T
        uh = self.uh.T
        h_prev = np.empty((x.shape[0], nh))
        z = np.empty_like(h_prev)
        r = np.empty_like(h_prev)
        g = np.empty_like(h_prev)
        h = np.zeros((len(batch), nh))
        for t, n in enumerate(running):
            rows = slice(offsets[t], offsets[t + 1])
            hp = h_prev[rows]
            hp[...] = h[:n]
            zr = hp @ u_zr
            zr += proj[rows, :2 * nh]
            _sigmoid(zr)
            z[rows] = zr[:, :nh]
            r[rows] = zr[:, nh:]
            z_t = z[rows]
            g_t = (r[rows] * hp) @ uh
            g_t += proj[rows, 2 * nh:]
            g[rows] = np.tanh(g_t, out=g_t)
            h[:n] = (1.0 - z_t) * g_t + z_t * hp
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
        grad = np.empty(self.n_params)
        dwz, duz, dbz, dwr, dur, dbr, dwh, duh, dbh, dw1, db1, dw2, db2 = self._views(grad)

        d_prob = np.broadcast_to(np.asarray(d_prob, dtype=np.float64), order.shape)[order]
        dlogit = d_prob * p * (1.0 - p)
        np.matmul(dlogit, q, out=dw2)
        db2[0] = dlogit.sum()
        da1 = np.outer(dlogit, self.w2) * (a1 > 0.0)
        np.matmul(da1.T, h_final, out=dw1)
        np.sum(da1, axis=0, out=db1)
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

        # Input/recurrent weight gradients accumulate over visits as single
        # matmuls, written straight into the flat gradient.
        np.matmul(daz.T, x, out=dwz)
        np.matmul(dar.T, x, out=dwr)
        np.matmul(dah.T, x, out=dwh)
        np.matmul(daz.T, h_prev, out=duz)
        np.matmul(dar.T, h_prev, out=dur)
        np.matmul(dah.T, r * h_prev, out=duh)
        np.sum(daz, axis=0, out=dbz)
        np.sum(dar, axis=0, out=dbr)
        np.sum(dah, axis=0, out=dbh)
        return grad


def save_checkpoint(model: RecurrentClassifier, path) -> None:
    """Binary checkpoint: magic, layer widths, then the flat parameter vector
    as little-endian float64."""
    flat = model.flat_params().astype("<f8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIIQ", model.feature_width, model.hidden, model.fc, flat.size))
        fh.write(flat.tobytes())


def load_checkpoint(path) -> RecurrentClassifier:
    """Model from a `save_checkpoint` file; any malformed file is a ValueError,
    raised before a model of the stated widths is allocated."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = struct.calcsize("<IIIQ")
    if len(blob) < 4 + header or blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a model checkpoint: {path}")
    f, h, k, count = struct.unpack("<IIIQ", blob[4:4 + header])
    payload = len(blob) - 4 - header
    if payload != 8 * count:
        raise ValueError(f"checkpoint truncated: {count} parameters need {8 * count} bytes, "
                         f"found {payload}")
    # Three gates of h(f + h + 1), then W1, b1, W2 (k(h + 2)) and b2.
    if min(f, h, k) < 1 or count != 3 * h * (f + h + 1) + k * (h + 2) + 1:
        raise ValueError(f"checkpoint header inconsistent: widths {f}, {h}, {k} "
                         f"with {count} parameters")
    return RecurrentClassifier(f, h, k, flat=np.frombuffer(blob, dtype="<f8", offset=4 + header))
