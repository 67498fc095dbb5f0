"""Closed-form maps between the endpoints, intermediate states and noise.

All operations are pure functions over rows. A scalar or (d,) state with
one integer step is a batch of one, a single (1, d) row, and the result
comes back in the input's shape (a scalar call returns ``numpy.float64``).
``forward_sample`` and ``loss_target`` also take (B, d) states with a (B,)
integer array of steps, row i at step t[i], bit for bit the call on that
row alone: this is how the training loop noises its batches.
``posterior`` and ``reverse_mean`` take one integer step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedule import BridgeSchedule


@dataclass(frozen=True)
class GaussianParams:
    """Isotropic Gaussian: per-dimension mean plus one shared variance."""

    mean: np.ndarray
    var: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "var", float(self.var))
        if not math.isfinite(self.var) or self.var < 0.0:
            raise ValueError(f"variance must be finite and non-negative, got {self.var}")


def _rows(schedule: BridgeSchedule, t, lo: int, hi: int, *states,
          one_step: bool = False) -> tuple[list[np.ndarray], np.ndarray, tuple[int, ...]]:
    """The states as (B, d) rows, the steps as a (B,) array, and the
    states' own shape to give results back in.

    A scalar or (d,) state with one step is a batch of one; (B, d) states
    with (B,) steps pass through. Steps must be integers (bool is not) in
    lo..hi, and ``one_step`` refuses a step array.
    """
    steps = np.asarray(t)
    if not np.issubdtype(steps.dtype, np.integer):
        raise TypeError(f"step indices must be integers, got dtype {steps.dtype}")
    if one_step and steps.ndim:
        raise TypeError(f"expected one integer step, got an array of shape {steps.shape}")
    rows = [np.asarray(s, dtype=np.float64) for s in states]
    shapes = [a.shape for a in rows]
    shape = shapes[0]
    batch_ok = steps.ndim == 1 and len(shape) == 2 and shape[0] == len(steps)
    if len(set(shapes)) > 1 or not (len(shape) <= 1 if steps.ndim == 0 else batch_ok):
        raise ValueError(
            f"batched states must share one shape, (d,) for one step or (B, d) for B steps; "
            f"got {shapes} for steps of shape {steps.shape}"
        )
    bad = steps[(steps < lo) | (steps > hi)]
    if bad.size:
        raise ValueError(f"step index {bad.flat[0]} outside {lo}..{hi} (T={schedule.T})")
    if steps.ndim == 0:
        steps = steps.reshape(1)
        rows = [a.reshape(1, -1) for a in rows]
    return rows, steps, shape


def forward_sample(schedule: BridgeSchedule, x0, y, t, eps) -> np.ndarray:
    """Draw from the step-t marginal using caller-supplied unit noise.

    Returns (1 - mix_t) x0 + mix_t y + sqrt(marginal_var_t) * eps; with
    eps = 0 this is exactly the marginal mean, and at t = T it is y
    bit-for-bit regardless of x0 and eps. With an integer array ``t`` of
    shape (B,) and (B, d) states, row i is drawn at step t[i].
    """
    (x0, y, eps), t, shape = _rows(schedule, t, 0, schedule.T, x0, y, eps)
    m = schedule.mix[t][:, None]
    sd = np.sqrt(schedule.marginal_var[t])[:, None]
    return ((1.0 - m) * x0 + m * y + sd * eps).reshape(shape)[()]


def posterior(schedule: BridgeSchedule, x_t, x0, y, t: int) -> GaussianParams:
    """Exact distribution of the previous state given x_t and both endpoints.

    Bayes product of the forward kernel and the step t-1 marginal:

        mean = A x_t + B x0 + C y,     var = posterior_var_t
        A = ratio_t mv_{t-1} / mv_t
        B = (1 - mix_{t-1}) tv_t / mv_t
        C = mix_{t-1} - mix_t ratio_t mv_{t-1} / mv_t

    with A + B + C = 1. Only the interior steps 2 <= t <= T-1 are
    non-degenerate; the sampler owns the endpoint special cases.
    """
    (x_t, x0, y), (t,), shape = _rows(schedule, t, 2, schedule.T - 1, x_t, x0, y, one_step=True)
    mv = schedule.marginal_var[t]
    mv_prev = schedule.marginal_var[t - 1]
    tv = schedule.transition_var[t]
    r = (1.0 - schedule.mix[t]) / (1.0 - schedule.mix[t - 1])
    a = r * mv_prev / mv
    b = (1.0 - schedule.mix[t - 1]) * tv / mv
    c = schedule.mix[t - 1] - schedule.mix[t] * r * mv_prev / mv
    return GaussianParams(mean=(a * x_t + b * x0 + c * y).reshape(shape),
                          var=schedule.posterior_var[t])


def loss_target(schedule: BridgeSchedule, x0, y, t, eps) -> np.ndarray:
    """Regression target for the noise predictor: mix_t (y - x0) + sqrt(mv_t) eps.

    Computed as forward_sample(...) - x0 so that target + x0 reproduces the
    forward sample bit-for-bit (the two expressions are algebraically
    identical). It takes whatever ``forward_sample`` takes.
    """
    return forward_sample(schedule, x0, y, t, eps) - np.asarray(x0, dtype=np.float64)


def reverse_mean(schedule: BridgeSchedule, x_t, y, eps_pred, t: int) -> GaussianParams:
    """Reverse-step distribution parameterized by the predicted noise.

    mean = coef_state_t x_t + coef_cond_t y - coef_noise_t eps_pred (note
    the minus sign on the noise term), var = posterior_var_t. With
    eps_pred equal to the true loss_target this reproduces the posterior
    mean.
    """
    (x_t, y, eps_pred), (t,), shape = _rows(schedule, t, 2, schedule.T - 1, x_t, y, eps_pred,
                                            one_step=True)
    mean = schedule.coef_state[t] * x_t + schedule.coef_cond[t] * y - schedule.coef_noise[t] * eps_pred
    return GaussianParams(mean=mean.reshape(shape), var=schedule.posterior_var[t])
