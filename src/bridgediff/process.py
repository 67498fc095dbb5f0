"""Closed-form maps between the endpoints, intermediate states and noise.

State vectors are 1-D double arrays of a fixed dimension (scalars are
treated as dimension-1 states); time indices are scalars. All operations
are pure functions. ``forward_sample`` also takes a batch: (B, d) states
with one integer step per row, computed with the same arithmetic as the
scalar call on each row, which is how the training loop noises its
batches.
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


def _as_state(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim > 1:
        raise ValueError(f"state vectors must be scalar or 1-D, got shape {arr.shape}")
    return arr


def _check_same_dim(**states) -> dict[str, np.ndarray]:
    out = {name: _as_state(v) for name, v in states.items()}
    shapes = {name: a.shape for name, a in out.items()}
    if len(set(shapes.values())) > 1:
        raise ValueError(f"dimension mismatch between states: {shapes}")
    return out


def _check_t(schedule: BridgeSchedule, t: int, lo: int, hi: int) -> int:
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
        raise TypeError(f"step index must be an integer, got {t!r}")
    t = int(t)
    if not lo <= t <= hi:
        raise ValueError(f"step index {t} outside {lo}..{hi} (T={schedule.T})")
    return t


def _check_rows(schedule: BridgeSchedule, t, **states) -> tuple[dict[str, np.ndarray], np.ndarray]:
    t = np.asarray(t)
    if not np.issubdtype(t.dtype, np.integer):
        raise TypeError(f"step indices must be integers, got dtype {t.dtype}")
    if t.ndim != 1:
        raise ValueError(f"step indices must be a scalar or 1-D, got shape {t.shape}")
    out = {name: np.asarray(v, dtype=np.float64) for name, v in states.items()}
    shapes = {name: a.shape for name, a in out.items()}
    if len(set(shapes.values())) > 1 or any(a.ndim != 2 or len(a) != len(t) for a in out.values()):
        raise ValueError(f"batched states must all be ({len(t)}, dim), got {shapes}")
    if np.any(t < 0) or np.any(t > schedule.T):
        raise ValueError(f"step index outside 0..{schedule.T}")
    return out, t


def forward_sample(schedule: BridgeSchedule, x0, y, t, eps) -> np.ndarray:
    """Draw from the step-t marginal using caller-supplied unit noise.

    Returns (1 - mix_t) x0 + mix_t y + sqrt(marginal_var_t) * eps; with
    eps = 0 this is exactly the marginal mean, and at t = T it is y
    bit-for-bit regardless of x0 and eps. With an integer array ``t`` of
    shape (B,) and (B, d) states, row i is drawn at step t[i], bit for
    bit as the scalar call on that row.
    """
    if np.ndim(t) == 0:
        s = _check_same_dim(x0=x0, y=y, eps=eps)
        t = _check_t(schedule, t, 0, schedule.T)
        m = schedule.mix[t]
        sd = math.sqrt(schedule.marginal_var[t])
    else:
        s, t = _check_rows(schedule, t, x0=x0, y=y, eps=eps)
        m = schedule.mix[t][:, None]
        sd = np.sqrt(schedule.marginal_var[t])[:, None]
    return (1.0 - m) * s["x0"] + m * s["y"] + sd * s["eps"]


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
    s = _check_same_dim(x_t=x_t, x0=x0, y=y)
    t = _check_t(schedule, t, 2, schedule.T - 1)
    mv = schedule.marginal_var[t]
    mv_prev = schedule.marginal_var[t - 1]
    tv = schedule.transition_var[t]
    r = (1.0 - schedule.mix[t]) / (1.0 - schedule.mix[t - 1])
    a = r * mv_prev / mv
    b = (1.0 - schedule.mix[t - 1]) * tv / mv
    c = schedule.mix[t - 1] - schedule.mix[t] * r * mv_prev / mv
    return GaussianParams(
        mean=a * s["x_t"] + b * s["x0"] + c * s["y"],
        var=schedule.posterior_var[t],
    )


def loss_target(schedule: BridgeSchedule, x0, y, t: int, eps) -> np.ndarray:
    """Regression target for the noise predictor: mix_t (y - x0) + sqrt(mv_t) eps.

    Computed as forward_sample(...) - x0 so that target + x0 reproduces the
    forward sample bit-for-bit (the two expressions are algebraically
    identical).
    """
    x0_arr = _as_state(x0)
    return forward_sample(schedule, x0_arr, y, t, eps) - x0_arr


def reverse_mean(schedule: BridgeSchedule, x_t, y, eps_pred, t: int) -> GaussianParams:
    """Reverse-step distribution parameterized by the predicted noise.

    mean = coef_state_t x_t + coef_cond_t y - coef_noise_t eps_pred (note
    the minus sign on the noise term), var = posterior_var_t. With
    eps_pred equal to the true loss_target this reproduces the posterior
    mean.
    """
    s = _check_same_dim(x_t=x_t, y=y, eps_pred=eps_pred)
    t = _check_t(schedule, t, 2, schedule.T - 1)
    mean = (
        schedule.coef_state[t] * s["x_t"]
        + schedule.coef_cond[t] * s["y"]
        - schedule.coef_noise[t] * s["eps_pred"]
    )
    return GaussianParams(mean=mean, var=schedule.posterior_var[t])
