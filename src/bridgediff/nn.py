"""The noise-prediction MLP and its hand-written backward pass.

The predictor is a plain fully connected net, (Linear -> SiLU) x k and a
final Linear, over the state concatenated with a sinusoidal embedding of
the step index; the final layer is zero-initialized so a fresh model
predicts zero noise everywhere. The embedding is a row of a cached,
read-only (T+1, embed_dim) table, so training and sampling look steps up
instead of recomputing sinusoids. Values are float64 numpy arrays. For
training, the forward pass keeps each layer's input, pre-activation and
sigmoid, and ``loss_and_grads`` runs the backward of the (optionally
weighted) mean squared error through exactly that graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def _embed_freqs(half: int) -> np.ndarray:
    # Geometric frequency ladder; the slowest component completes less than
    # one revolution over step indices up to ~2*pi*10000^((half-1)/half),
    # which keeps embeddings of distinct steps distinct.
    return np.exp(-math.log(10000.0) * np.arange(half) / half)


def time_embed(t: int, T: int, dim: int) -> np.ndarray:
    """Sinusoidal features of the step index; every entry lies in [-1, 1]."""
    if dim % 2 != 0 or dim <= 0:
        raise ValueError(f"embedding dimension must be positive and even, got {dim}")
    if not 0 <= t <= T:
        raise ValueError(f"step index {t} outside 0..{T}")
    angles = float(t) * _embed_freqs(dim // 2)
    return np.concatenate([np.sin(angles), np.cos(angles)])


def _time_embed_rows(ts: np.ndarray, dim: int) -> np.ndarray:
    angles = np.asarray(ts, dtype=np.float64)[:, None] * _embed_freqs(dim // 2)[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


@lru_cache(maxsize=16)
def _embed_table(T: int, dim: int) -> np.ndarray:
    """Read-only embedding rows for every step 0..T; row t is shared by all
    callers, so nothing may write to it."""
    table = _time_embed_rows(np.arange(T + 1), dim)
    table.flags.writeable = False
    return table


@dataclass
class NoisePredictor:
    """Fully connected eps predictor over (state, step-embedding) inputs.

    The conditioning endpoint is deliberately not an input; at sampling
    time the only things the net sees are the current state and the step.
    ``state_scale``, when set, divides the state by a per-step constant
    before the first layer (the marginal state scale is known from the
    schedule, and standardized inputs keep the net out of its saturated
    tails at large variance scales). It participates in checkpoints so
    training and sampling always agree.
    """

    data_dim: int
    embed_dim: int
    hidden: tuple[int, ...]
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)
    state_scale: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def create(
        cls,
        data_dim: int,
        hidden: tuple[int, ...],
        embed_dim: int,
        rng: np.random.Generator,
        state_scale: np.ndarray | None = None,
    ) -> "NoisePredictor":
        """Fan-in uniform init for hidden layers, zeros for the output layer."""
        if data_dim < 1 or embed_dim < 2 or embed_dim % 2 != 0:
            raise ValueError(f"bad sizes: data_dim={data_dim}, embed_dim={embed_dim}")
        hidden = tuple(int(h) for h in hidden)
        if not hidden or any(h < 1 for h in hidden):
            raise ValueError(f"need at least one positive hidden width, got {hidden}")
        if state_scale is not None:
            state_scale = np.asarray(state_scale, dtype=np.float64)
            if state_scale.ndim != 1 or np.any(state_scale <= 0):
                raise ValueError("state_scale must be a 1-D array of positive scales")
        sizes = [data_dim + embed_dim, *hidden, data_dim]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        weights[-1][:] = 0.0
        return cls(
            data_dim=data_dim,
            embed_dim=embed_dim,
            hidden=hidden,
            weights=weights,
            biases=biases,
            state_scale=state_scale,
        )

    @property
    def n_params(self) -> int:
        return sum(a.size for a in self.params())

    def params(self) -> list[np.ndarray]:
        """Trainable arrays, interleaved [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy_with(self, arrays: list[np.ndarray]) -> "NoisePredictor":
        """New predictor with the same sizes and the given parameter arrays."""
        expected = [a.shape for a in self.params()]
        got = [np.asarray(a).shape for a in arrays]
        if expected != got:
            raise ValueError(f"parameter shape mismatch: {got} vs {expected}")
        return NoisePredictor(
            data_dim=self.data_dim,
            embed_dim=self.embed_dim,
            hidden=self.hidden,
            weights=[np.array(arrays[i], dtype=np.float64) for i in range(0, len(arrays), 2)],
            biases=[np.array(arrays[i], dtype=np.float64) for i in range(1, len(arrays), 2)],
            state_scale=None if self.state_scale is None else self.state_scale.copy(),
        )

    def _normalize(self, x, t, T: int) -> tuple[np.ndarray, np.ndarray, bool]:
        """States as (B, d) rows and steps as (B,) integer indices in 0..T."""
        xb = np.asarray(x, dtype=np.float64)
        single = xb.ndim == 1
        if single:
            xb = xb[None, :]
        if xb.ndim != 2 or xb.shape[1] != self.data_dim:
            raise ValueError(f"expected states of dimension {self.data_dim}, got shape {np.shape(x)}")
        ta = np.asarray(t)
        ti = ta.astype(np.intp)
        if ta.dtype.kind not in "iu" and np.any(ti != ta):
            raise ValueError("step index must be integer-valued")
        tb = np.broadcast_to(ti, (xb.shape[0],))
        if np.any(tb < 0) or np.any(tb > T):
            raise ValueError(f"step index outside 0..{T}")
        return xb, tb, single

    def _scaled(self, xb: np.ndarray, tb: np.ndarray) -> np.ndarray:
        if self.state_scale is None:
            return xb
        return xb / self.state_scale[tb][:, None]

    def _layers(self, xb: np.ndarray, tb: np.ndarray, T: int, keep: bool):
        """Output rows and, when ``keep``, every layer's input and every
        hidden layer's (pre-activation, sigmoid) for the backward pass. A
        plain forward keeps none, so large batches hold one layer at a time."""
        h = np.concatenate([self._scaled(xb, tb), _embed_table(T, self.embed_dim)[tb]], axis=1)
        inputs, acts = [], []
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = h @ w + b
            sig = 1.0 / (1.0 + np.exp(-z))
            if keep:
                inputs.append(h)
                acts.append((z, sig))
            h = z * sig
        inputs.append(h)
        return h @ self.weights[-1] + self.biases[-1], inputs, acts

    def forward(self, x, t, T: int) -> np.ndarray:
        """Predict eps for one state (1-D) or a batch (2-D); deterministic."""
        xb, tb, single = self._normalize(x, t, T)
        out, _, _ = self._layers(xb, tb, T, keep=False)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("non-finite prediction (non-finite parameters?)")
        return out[0] if single else out

    def loss_and_grads(
        self, x, t, target, T: int, sample_weight: np.ndarray | None = None
    ) -> tuple[float, list[np.ndarray]]:
        """Mean-squared-error loss over the batch and its parameter gradients.

        ``sample_weight``, when given, scales the squared errors
        elementwise before the mean; it must broadcast to the batch shape.
        """
        xb, tb, _ = self._normalize(x, t, T)
        tgt = np.asarray(target, dtype=np.float64)
        if tgt.ndim == 1:
            tgt = tgt[None, :]
        if tgt.shape != xb.shape:
            raise ValueError(f"target shape {tgt.shape} does not match input {xb.shape}")
        out, inputs, acts = self._layers(xb, tb, T, keep=True)
        diff = out - tgt
        sq = diff * diff
        if sample_weight is not None:
            w = np.asarray(sample_weight, dtype=np.float64)
            if np.broadcast_shapes(w.shape, sq.shape) != sq.shape:
                raise ValueError(f"sample_weight shape {w.shape} does not broadcast to {sq.shape}")
            sq = sq * w
        loss = np.mean(sq)
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite training loss")

        # d(mean)/d(sq), then through the weights and the square. Each float
        # operation and its order are fixed, so training runs replay byte
        # for byte across versions; regroup none of them.
        g = np.full(sq.shape, 1.0 / sq.size)
        if sample_weight is not None:
            g = g * w
        g = g * diff + g * diff
        grads = []
        for i in reversed(range(len(self.weights))):
            grads += [g.sum(axis=0), inputs[i].T @ g]
            if i > 0:
                z, sig = acts[i - 1]
                g = g @ self.weights[i].T
                g = g * sig * (1.0 + z * (1.0 - sig))
        return float(loss), grads[::-1]

    def eps_fn(self, T: int):
        """Adapter with the (state, step) -> eps signature the samplers take."""
        return lambda x, t: self.forward(x, t, T)
