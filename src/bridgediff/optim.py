"""Optimization machinery: Adam, EMA shadowing, plateau LR scheduling.

All three mutate their state objects in place and return them; parameters
are updated in place as well (single-writer training loop). Adam and the
EMA work on whole vectors: the model's one parameter vector
(``NoisePredictor.flat``), a gradient laid out the same way, and moment
and shadow vectors of that length. Both are elementwise, so one pass over
the vector gives the same bits as one pass per layer. Their in-place
ufunc calls spell out a fixed sequence of float operations, which keeps
training runs replayable byte for byte; regroup none of them.

Each state dataclass checks its vectors and its hyperparameters' ranges on
construction, the one place those rules live: the Adam moments ``m`` and
``v`` share one shape and are finite with ``v >= 0``, and the EMA shadow is
finite. Range messages start with the config key (``adam_beta1`` for the
checkpoint header's ``adam.beta1``). An integer
setting (the EMA's start step and update interval, the plateau patience and
cooldown) must be an integer: a bool or a float such as 2.5 is a
``TypeError``, not truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _count(key: str, value, low: int) -> int:
    """``value`` as an int; it must be an integer (not a bool) and at
    least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{key} must be >= {low}, got {value}")
    return int(value)


@dataclass
class AdamState:
    """First/second moment vectors plus the step counter. The moments
    share one shape and are finite, with ``v >= 0``; a checkpoint restore
    runs the same checks."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.m.shape != self.v.shape:
            raise ValueError(f"adam moments m {self.m.shape} and v {self.v.shape} differ in shape")
        if not np.isfinite(self.m).all():
            raise ValueError("adam_m holds non-finite values")
        # NaN fails both comparisons.
        if not np.all((self.v >= 0.0) & (self.v < math.inf)):
            raise ValueError("adam_v holds non-finite or negative values")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"adam_{name} must lie in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"adam_eps must be finite and positive, got {self.eps}")
        # Scratch for adam_step, so an update allocates nothing.
        self._a = np.empty_like(self.m)
        self._b = np.empty_like(self.m)

    @classmethod
    def for_params(
        cls, params: np.ndarray, beta1: float = 0.9, beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> "AdamState":
        return cls(
            m=np.zeros_like(params),
            v=np.zeros_like(params),
            beta1=float(beta1),
            beta2=float(beta2),
            eps=float(eps),
        )


def adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of the parameter vector, in place:
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps)."""
    lr = float(lr)
    if not math.isfinite(lr) or lr < 0.0:
        raise ValueError(f"learning rate must be finite and non-negative, got {lr}")
    if grad.shape != params.shape or state.m.shape != params.shape:
        raise ValueError(
            f"gradient {grad.shape}, moments {state.m.shape} and parameters {params.shape} differ"
        )
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient")
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    m, v, a, b = state.m, state.v, state._a, state._b
    m *= state.beta1
    np.multiply(grad, 1.0 - state.beta1, out=a)
    m += a
    v *= state.beta2
    np.multiply(grad, grad, out=a)
    a *= 1.0 - state.beta2
    v += a
    np.divide(m, bc1, out=a)
    a *= lr
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += state.eps
    a /= b
    params -= a
    return params, state


@dataclass
class EmaState:
    """Shadow copy of the parameter vector, updated geometrically on a step
    grid. The shadow must be finite, here as in a checkpoint restore."""

    shadow: np.ndarray
    decay: float = 0.995
    start_step: int = 0
    update_interval: int = 16

    def __post_init__(self):
        if not np.isfinite(self.shadow).all():
            raise ValueError("ema shadow holds non-finite values")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError(f"ema_decay must lie in [0, 1), got {self.decay}")
        self.start_step = _count("ema_start_step", self.start_step, 0)
        self.update_interval = _count("ema_update_interval", self.update_interval, 1)

    @classmethod
    def from_params(
        cls, params: np.ndarray, decay: float = 0.995,
        start_step: int = 0, update_interval: int = 16,
    ) -> "EmaState":
        return cls(
            shadow=np.array(params, dtype=np.float64),
            decay=float(decay),
            start_step=start_step,
            update_interval=update_interval,
        )


def ema_update(ema: EmaState, params: np.ndarray, step: int) -> EmaState:
    """Fold the current parameter vector into the shadow; no-op before
    start_step or off the update interval."""
    if step < ema.start_step:
        return ema
    if step % ema.update_interval != 0:
        return ema
    ema.shadow *= ema.decay
    ema.shadow += (1.0 - ema.decay) * params
    return ema


@dataclass
class PlateauLrState:
    """Reduce-on-plateau state; metric improvements are judged against the
    best seen so far minus an absolute threshold."""

    current_lr: float
    max_lr: float
    min_lr: float = 5.0e-7
    factor: float = 0.5
    patience: int = 3000
    cooldown: int = 2000
    threshold: float = 1.0e-4
    best_metric: float = math.inf
    bad_count: int = 0
    cooldown_count: int = 0

    def __post_init__(self):
        if not 0.0 < self.factor < 1.0:
            raise ValueError(f"plateau_factor must lie in (0, 1), got {self.factor}")
        if not 0.0 < self.min_lr <= self.current_lr <= self.max_lr < math.inf:
            raise ValueError(
                "plateau rates must satisfy 0 < min_lr <= current_lr <= max_lr < inf, got "
                f"min_lr={self.min_lr}, current_lr={self.current_lr}, max_lr={self.max_lr}"
            )
        if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
            raise ValueError(f"plateau_threshold must be finite and >= 0, got {self.threshold}")
        self.patience = _count("plateau_patience", self.patience, 1)
        self.cooldown = _count("plateau_cooldown", self.cooldown, 0)

    @classmethod
    def create(
        cls, max_lr: float, min_lr: float = 5.0e-7, factor: float = 0.5,
        patience: int = 3000, cooldown: int = 2000, threshold: float = 1.0e-4,
    ) -> "PlateauLrState":
        return cls(
            current_lr=float(max_lr),
            max_lr=float(max_lr),
            min_lr=float(min_lr),
            factor=float(factor),
            patience=patience,
            cooldown=cooldown,
            threshold=float(threshold),
        )


def plateau_lr_step(state: PlateauLrState, metric: float) -> PlateauLrState:
    """Record one metric observation, cutting the rate after `patience`
    non-improving observations outside a cooldown window."""
    metric = float(metric)
    if not math.isfinite(metric):
        raise ValueError(f"plateau metric must be finite, got {metric}")
    if metric < state.best_metric - state.threshold:
        state.best_metric = metric
        state.bad_count = 0
        if state.cooldown_count > 0:
            state.cooldown_count -= 1
        return state
    if state.cooldown_count > 0:
        state.cooldown_count -= 1
        state.bad_count = 0
        return state
    state.bad_count += 1
    if state.bad_count >= state.patience:
        state.current_lr = max(state.current_lr * state.factor, state.min_lr)
        state.cooldown_count = state.cooldown
        state.bad_count = 0
    return state
