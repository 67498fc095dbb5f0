"""Variance schedule for a diffusion pinned at both endpoints.

The forward process interpolates data ``x0`` toward a conditioning endpoint
``y`` with mixing weight ``mix[t] = t/T`` and marginal variance
``2*s*(mix - mix^2)``, which vanishes at both ends and peaks at ``s/2``
mid-bridge. Every derived per-step quantity is precomputed once, in double
precision:

    mix[t]            t / T
    marginal_var[t]   2 s (mix[t] - mix[t]^2)
    ratio[t]          (1 - mix[t]) / (1 - mix[t-1])
    transition_var[t] marginal_var[t] - marginal_var[t-1] * ratio[t]^2
    posterior_var[t]  transition_var[t] * marginal_var[t-1] / marginal_var[t]
    coef_state / coef_cond / coef_noise   reverse-step mean coefficients

The reverse-step mean is ``coef_state*x_t + coef_cond*y - coef_noise*eps``
with

    coef_state[t] = (marginal_var[t-1]/marginal_var[t]) * ratio[t]
                    + (transition_var[t]/marginal_var[t]) * (1 - mix[t-1])
    coef_cond[t]  = mix[t-1] - mix[t] * ratio[t] * marginal_var[t-1]/marginal_var[t]
    coef_noise[t] = (1 - mix[t-1]) * transition_var[t]/marginal_var[t]

``marginal_var[T] = 0`` makes ``posterior_var[T]`` and the ``t = T``
coefficients singular. Those slots, and slot 0 of every transition-level
array (no transition enters ``t = 0``), hold NaN: that is the one way a
degenerate slot is represented, and ``bridgediff info`` prints it as an
empty field. The sampler never reads them: its move out of ``t = T`` is
its loop's first iteration, with bridge scale 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BridgeSchedule:
    """Precomputed per-step schedule quantities, arrays indexed by t = 0..T.

    ``mix`` and ``marginal_var`` are meaningful for every t. The remaining
    arrays describe the transition t-1 -> t and hold NaN at slot 0;
    ``posterior_var`` and the ``coef_*`` arrays additionally hold NaN at
    slot T (degenerate, see module docstring). Arrays are read-only, so a
    built schedule is safe to share across threads.
    """

    T: int
    s: float
    mix: np.ndarray
    marginal_var: np.ndarray
    transition_var: np.ndarray
    posterior_var: np.ndarray
    coef_state: np.ndarray
    coef_cond: np.ndarray
    coef_noise: np.ndarray


def build_schedule(T: int, s: float) -> BridgeSchedule:
    """Precompute the full schedule for ``T`` steps at variance scale ``s``.

    Requires an integer ``T >= 2`` and finite ``s > 0``. An ``s`` so large
    that a schedule quantity overflows, or so small that one underflows
    (which would, for one, zero ``posterior_var`` and leave the sampler
    without noise), is a ``ValueError`` naming ``s``.
    """
    if isinstance(T, bool) or not isinstance(T, (int, np.integer)):
        raise TypeError(f"T must be an integer, got {T!r}")
    T = int(T)
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"s must be finite and positive, got {s}")

    try:
        with np.errstate(over="raise", under="raise", invalid="raise"):
            steps = np.arange(T + 1, dtype=np.float64)
            mix = steps / T
            # 2 s as a numpy scalar, so that an overflow there raises too.
            marginal_var = np.multiply(2.0, s) * (mix - mix * mix)

            # ratio[t-1] corresponds to step t = 1..T; the denominator 1 - mix[t-1]
            # is positive for every t <= T.
            ratio = (1.0 - mix[1:]) / (1.0 - mix[:-1])

            transition_var = np.full(T + 1, np.nan)
            transition_var[1:] = marginal_var[1:] - marginal_var[:-1] * ratio * ratio

            posterior_var = np.full(T + 1, np.nan)
            coef_state = np.full(T + 1, np.nan)
            coef_cond = np.full(T + 1, np.nan)
            coef_noise = np.full(T + 1, np.nan)

            # Slots 1..T-1 only: marginal_var[T] = 0 is singular in each formula.
            mv = marginal_var[1:T]
            mv_prev = marginal_var[0 : T - 1]
            tv = transition_var[1:T]
            r = ratio[0 : T - 1]
            mx = mix[1:T]
            mx_prev = mix[0 : T - 1]

            posterior_var[1:T] = tv * mv_prev / mv
            coef_state[1:T] = (mv_prev / mv) * r + (tv / mv) * (1.0 - mx_prev)
            coef_cond[1:T] = mx_prev - mx * r * mv_prev / mv
            coef_noise[1:T] = (1.0 - mx_prev) * tv / mv
    except FloatingPointError:
        # Only a huge s overflows, and only a tiny one underflows.
        raise ValueError(
            f"variance scale s={s} makes the schedule at T={T} {'overflow' if s > 1.0 else 'underflow'}"
        ) from None

    for arr in (mix, marginal_var, transition_var, posterior_var,
                coef_state, coef_cond, coef_noise):
        arr.setflags(write=False)

    return BridgeSchedule(
        T=T,
        s=s,
        mix=mix,
        marginal_var=marginal_var,
        transition_var=transition_var,
        posterior_var=posterior_var,
        coef_state=coef_state,
        coef_cond=coef_cond,
        coef_noise=coef_noise,
    )


def coarse_posterior_var(
    schedule: BridgeSchedule, t_prev: int | np.ndarray, t_cur: int | np.ndarray
) -> float | np.ndarray:
    """Posterior variance of the jump t_cur -> t_prev on a thinned step grid.

    Same formula as the adjacent-step ``posterior_var`` but evaluated
    between two arbitrary grid points; equals ``posterior_var[t_cur]``
    bit-for-bit when ``t_prev == t_cur - 1``. Requires ``t_cur < T``
    (the jump away from T is handled separately by the sampler) and is
    guaranteed to lie in ``[0, marginal_var[t_prev]]``.

    Two ints give a float. Integer arrays of pairs (broadcast together)
    give an array that holds, entry for entry, the bits of the scalar
    calls; the sampler builds its per-move plan this way.
    """
    prev, cur = np.asarray(t_prev), np.asarray(t_cur)
    bad = ~((0 <= prev) & (prev < cur) & (cur <= schedule.T - 1))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        prev, cur = np.broadcast_arrays(prev, cur)
        raise ValueError(
            f"need 0 <= t_prev < t_cur <= T-1, got ({prev.flat[k]}, {cur.flat[k]}) with T={schedule.T}"
        )
    mv_cur = schedule.marginal_var[cur]
    mv_prev = schedule.marginal_var[prev]
    r = (1.0 - schedule.mix[cur]) / (1.0 - schedule.mix[prev])
    tv = mv_cur - mv_prev * r * r
    pv = tv * mv_prev / mv_cur
    return float(pv) if pv.ndim == 0 else pv
