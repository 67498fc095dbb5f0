"""The noise-prediction MLP and its hand-written backward pass.

The predictor is a plain fully connected net, (Linear -> SiLU) x k and a
final Linear, over the state concatenated with a sinusoidal embedding of
the step index; the final layer is zero-initialized so a fresh model
predicts zero noise everywhere. The embedding is a row of a cached,
read-only (T+1, embed_dim) table, so training and sampling look steps up
instead of recomputing sinusoids. A scalar step (the sampler's call)
stays scalar: its one embedding row and state scale broadcast over the
batch into the input buffer, which then holds the same values, and gives
the same output bits, as the same step given once per row. Values are
float64 numpy arrays. For training, the forward pass keeps each layer's
input, pre-activation and sigmoid, and ``loss_and_grads`` runs the
backward of the (optionally weighted) mean squared error through exactly
that graph.

Storage: every parameter lives in one contiguous vector,
``NoisePredictor.flat``, and the per-layer weights and biases are views
into it, so the optimizer and the EMA (``optim``) and checkpoints see one
vector each. Each backward call writes its gradients into views of a
vector allocated for that call, so gradients a caller holds survive later
calls. The forward and backward work in place where they own a buffer;
each in-place step is the float operation the plain expression would
perform, in the same order, so results are bitwise those of the plain
expressions. Do not regroup them (for example ``2 * g`` for ``g + g`` or
``g * (sig * d)`` for ``g * sig * d``), and do not split matmuls into row
blocks: either changes the rounding and with it every training output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


# Rows per block of a hidden layer's elementwise ops. On a large batch
# (the 18,000-row validation forward) a block of pre-activations and its
# sigmoids stays in cache across the five passes; elementwise results do
# not depend on the blocking. The matmuls always run on the whole batch.
_ELEMENTWISE_ROWS = 256


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


def layer_shapes(data_dim: int, embed_dim: int, hidden: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Shapes of the parameter arrays in storage order [W0, b0, W1, b1, ...]."""
    sizes = [data_dim + embed_dim, *hidden, data_dim]
    shapes: list[tuple[int, ...]] = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    return shapes


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

    ``flat`` holds every trainable parameter in one contiguous float64
    vector laid out as ``layer_shapes`` lists them, each weight in C order.
    ``weights``, ``biases`` and ``params()`` are views into it, so an
    in-place edit through any of them changes the model. Rebinding
    ``flat`` would leave the views behind; build a new predictor instead.
    """

    data_dim: int
    embed_dim: int
    hidden: tuple[int, ...]
    flat: np.ndarray = field(repr=False)
    state_scale: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.hidden = tuple(int(h) for h in self.hidden)
        self._slices = []
        offset = 0
        for shape in layer_shapes(self.data_dim, self.embed_dim, self.hidden):
            self._slices.append((offset, offset + math.prod(shape), shape))
            offset += math.prod(shape)
        f = self.flat
        if f.dtype != np.float64 or f.shape != (offset,) or not f.flags.c_contiguous:
            raise ValueError(
                f"parameters must be one contiguous float64 vector of {offset} entries, "
                f"got {f.dtype} {f.shape}"
            )
        self._params = self.split(f)
        self.weights = self._params[0::2]
        self.biases = self._params[1::2]

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
            if state_scale.ndim != 1 or not np.all(np.isfinite(state_scale) & (state_scale > 0)):
                raise ValueError("state_scale must be a 1-D array of finite, positive scales")
        n = sum(math.prod(shape) for shape in layer_shapes(data_dim, embed_dim, hidden))
        model = cls(data_dim, embed_dim, hidden, flat=np.zeros(n), state_scale=state_scale)
        # The output layer is drawn and then zeroed, so a caller that keeps
        # using ``rng`` sees the same later draws as it always has.
        for w in model.weights:
            bound = 1.0 / math.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        model.weights[-1][...] = 0.0
        return model

    @property
    def n_params(self) -> int:
        return self.flat.size

    def params(self) -> list[np.ndarray]:
        """Trainable arrays [W0, b0, W1, b1, ...], as views into ``flat``."""
        return list(self._params)

    def split(self, vec: np.ndarray) -> list[np.ndarray]:
        """Per-layer views [W0, b0, W1, b1, ...] of a vector laid out like ``flat``."""
        return [vec[a:b].reshape(shape) for a, b, shape in self._slices]

    def copy_with(self, flat: np.ndarray) -> "NoisePredictor":
        """New predictor with the same sizes and its own copy of ``flat``."""
        flat = np.asarray(flat)
        if flat.shape != self.flat.shape:
            raise ValueError(f"parameter vector shape {flat.shape} does not match {self.flat.shape}")
        return NoisePredictor(
            data_dim=self.data_dim,
            embed_dim=self.embed_dim,
            hidden=self.hidden,
            flat=np.array(flat, dtype=np.float64),
            state_scale=None if self.state_scale is None else self.state_scale.copy(),
        )

    def _normalize(self, x, t, T: int) -> tuple[np.ndarray, int | np.ndarray, bool]:
        """States as (B, d) rows; the step as one integer index in 0..T, or
        as (B,) indices when an array of steps is given."""
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
        if ti.ndim == 0:
            # A scalar step stays scalar: it indexes one embedding row that
            # broadcasts over the batch, with no (B,) array to build.
            tb = int(ti)
            in_range = 0 <= tb <= T
        else:
            tb = np.broadcast_to(ti, (xb.shape[0],))
            in_range = not (np.any(tb < 0) or np.any(tb > T))
        if not in_range:
            raise ValueError(f"step index outside 0..{T}")
        return xb, tb, single

    def _layers(self, xb: np.ndarray, tb: int | np.ndarray, T: int, keep: bool):
        """Output rows and, when ``keep``, every layer's input and every
        hidden layer's (pre-activation, sigmoid) for the backward pass. A
        plain forward keeps none and works in place, so large batches hold
        one layer at a time."""
        # On extreme inputs exp overflows (the sigmoid saturates at 0 as it
        # should) or a product turns NaN; callers check outputs for
        # finiteness, so numpy's warnings would only be noise on stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            # The (B, d + e) input: scaled state, then the step's embedding
            # row(s). One step gives a view of one row and (1,) scales, an
            # array of steps (B, e) rows and (B, 1) scales; either broadcasts
            # over the batch. The gathered rows are made before the buffer
            # and dropped right after the copy; in the other order the peak
            # resident set of a training run (18,000-row validation
            # forwards) is about 5 MB higher, as glibc reuses the freed
            # blocks differently.
            d = self.data_dim
            emb = _embed_table(T, self.embed_dim)[tb]
            h = np.empty((xb.shape[0], d + self.embed_dim))
            if self.state_scale is None:
                h[:, :d] = xb
            else:
                np.divide(xb, self.state_scale[tb, None], out=h[:, :d])
            h[:, d:] = emb
            del emb
            inputs, acts = [], []
            for w, b in zip(self.weights[:-1], self.biases[:-1]):
                z = h @ w
                rows = z.shape[0]
                sig = np.empty(z.shape if keep else (min(rows, _ELEMENTWISE_ROWS), z.shape[1]))
                # z += b and sig = 1 / (1 + exp(-z)), op for op, then (plain
                # forward) z *= sig, a block of rows at a time.
                for r in range(0, rows, _ELEMENTWISE_ROWS):
                    zb = z[r : r + _ELEMENTWISE_ROWS]
                    sb = sig[r : r + _ELEMENTWISE_ROWS] if keep else sig[: zb.shape[0]]
                    zb += b
                    np.negative(zb, out=sb)
                    np.exp(sb, out=sb)
                    sb += 1.0
                    np.divide(1.0, sb, out=sb)
                    if not keep:
                        zb *= sb
                if keep:
                    inputs.append(h)
                    acts.append((z, sig))
                    h = z * sig
                else:
                    h = z
            inputs.append(h)
            out = h @ self.weights[-1]
            out += self.biases[-1]
            return out, inputs, acts

    def forward(self, x, t, T: int) -> np.ndarray:
        """Predict eps for one state (1-D) or a batch (2-D); deterministic."""
        xb, tb, single = self._normalize(x, t, T)
        out, _, _ = self._layers(xb, tb, T, keep=False)
        if not np.isfinite(out).all():
            scale = self.state_scale
            if not np.isfinite(self.flat).all() or (scale is not None and not np.isfinite(scale).all()):
                raise FloatingPointError("non-finite prediction from non-finite parameters")
            raise FloatingPointError("non-finite prediction from finite parameters (inputs out of range?)")
        return out[0] if single else out

    def loss_and_grads(
        self, x, t, target, T: int, sample_weight: np.ndarray | None = None
    ) -> tuple[float, list[np.ndarray]]:
        """Mean-squared-error loss over the batch and its parameter gradients.

        ``sample_weight``, when given, scales the squared errors
        elementwise before the mean; it must broadcast to the batch shape.
        The gradients are per-layer views, ordered like ``params()``, of
        one vector allocated for this call, so they stay valid across
        later calls.
        """
        loss, grad = self._loss_and_grad(x, t, target, T, sample_weight)
        return loss, self.split(grad)

    def _loss_and_grad(
        self, x, t, target, T: int, sample_weight: np.ndarray | None = None
    ) -> tuple[float, np.ndarray]:
        """``loss_and_grads`` with the gradient as one vector laid out like ``flat``."""
        xb, tb, _ = self._normalize(x, t, T)
        tgt = np.asarray(target, dtype=np.float64)
        if tgt.ndim == 1:
            tgt = tgt[None, :]
        if tgt.shape != xb.shape:
            raise ValueError(f"target shape {tgt.shape} does not match input {xb.shape}")
        out, inputs, acts = self._layers(xb, tb, T, keep=True)
        # Overflow here is reported as a non-finite loss just below.
        with np.errstate(over="ignore", invalid="ignore"):
            diff = out - tgt
            sq = diff * diff
            if sample_weight is not None:
                w = np.asarray(sample_weight, dtype=np.float64)
                if np.broadcast_shapes(w.shape, sq.shape) != sq.shape:
                    raise ValueError(f"sample_weight shape {w.shape} does not broadcast to {sq.shape}")
                sq *= w
            loss = np.mean(sq)
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite training loss")

        # d(mean)/d(sq), then through the weights and the square. Each float
        # operation and its order are fixed, so training runs replay byte
        # for byte across versions; regroup none of them. The in-place
        # steps below compute g * w, then g * diff + g * diff, and per
        # hidden layer (g @ W.T) * sig * (1 + z * (1 - sig)), left to right.
        g = np.full(sq.shape, 1.0 / sq.size)
        if sample_weight is not None:
            g *= w
        g *= diff
        g += g
        grad = np.empty(self.flat.size)
        views = self.split(grad)
        for i in reversed(range(len(self.weights))):
            np.sum(g, axis=0, out=views[2 * i + 1])
            np.matmul(inputs[i].T, g, out=views[2 * i])
            if i > 0:
                z, sig = acts[i - 1]
                g = g @ self.weights[i].T
                g *= sig
                np.subtract(1.0, sig, out=sig)
                z *= sig
                z += 1.0
                g *= z
        return float(loss), grad

    def eps_fn(self, T: int):
        """Adapter with the (state, step) -> eps signature the samplers take."""
        return lambda x, t: self.forward(x, t, T)
