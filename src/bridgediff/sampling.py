"""Reverse-time sampling: full ancestral chains and coarse-grid acceleration.

One stepper drives both entry points. For a descending pair of grid times
(cur -> prev) it reconstructs the data point from the predicted noise and
draws

    x_prev = (1 - mix_prev) x0_hat + mix_prev y
             + sqrt((mv_prev - sigma^2) / mv_cur) * (x_cur - (1 - mix_cur) x0_hat - mix_cur y)
             + sigma z,        sigma^2 = eta * coarse_posterior_var(prev, cur)

which preserves the per-step marginals at eta = 1 and is fully
deterministic at eta = 0. On the dense grid 1..T with eta = 1 the update is
algebraically the coefficient-form recursion (coef_state x + coef_cond y -
coef_noise eps + sqrt(pv) z), so ancestral sampling is exactly the
full-grid instance; tests pin the agreement with ``process.reverse_mean``.

Endpoints are special: the state at t = T is the conditioning input itself
and carries no extra information, so the first move draws straight from the
step-grid[-2] marginal around the reconstructed data point (variance scaled
by eta); the final move outputs the reconstruction with no noise.

That reconstruction estimates E[x0 | x_grid[0]], so it averages over the
residual variance ``marginal_var[grid[0]] = 2 s (m - m^2)``, which scales
with s. At large s this smoothing outweighs the extra spread of the wider
bridge, and per-input diversity is not monotone in s. With the exact
mixture posterior on two-moons in place of a network, ``make_grid(1000,
200)`` (grid[0] = 5) peaks near s = 2; with ``(1,) + make_grid(1000, 200)``
the peak moves up to s ~ 4 (4k reference points: 0.568 at s = 2, 0.570
at s = 4, 0.562 at s = 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedule import BridgeSchedule, coarse_posterior_var
from .seeding import rng_for

Trajectory = list[tuple[int, np.ndarray]]


@dataclass(frozen=True)
class SamplerPlan:
    """Step grid and noise policy for one sampling run."""

    grid: tuple[int, ...]
    eta: float = 1.0
    seed: int = 0
    record_trajectory: bool = False

    def __post_init__(self):
        grid = tuple(int(t) for t in self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid:
            raise ValueError("step grid must be non-empty")
        if grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"step grid must be strictly increasing and >= 1, got {grid}")
        if not 0.0 <= float(self.eta) <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        object.__setattr__(self, "eta", float(self.eta))


def make_grid(T: int, S: int) -> tuple[int, ...]:
    """S strictly increasing steps, evenly spaced by rounding, ending at T."""
    if not 1 <= S <= T:
        raise ValueError(f"need 1 <= S <= T, got S={S}, T={T}")
    steps = [int(math.floor(i * T / S + 0.5)) for i in range(1, S + 1)]
    steps[-1] = T
    out = [max(1, steps[0])]
    for v in steps[1:]:
        if v > out[-1]:
            out.append(v)
    return tuple(out)


def _check_state(x: np.ndarray, t: int) -> None:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite state while sampling at step t={t}")


def _run_chain(
    schedule: BridgeSchedule,
    eps_fn,
    y: np.ndarray,
    grid: tuple[int, ...],
    eta: float,
    rng: np.random.Generator,
    record: bool,
) -> tuple[np.ndarray, Trajectory | None]:
    T = schedule.T
    y = np.array(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"conditioning input must be a 1-D state, got shape {y.shape}")
    if grid[-1] != T:
        raise ValueError(f"step grid must end at T={T}, got {grid[-1]}")

    traj: Trajectory | None = [(T, y.copy())] if record else None
    x = y.copy()

    # Leave t = T: the state equals y, so the posterior collapses onto the
    # target-step marginal around the reconstructed data point.
    eps = np.asarray(eps_fn(x, T), dtype=np.float64)
    x0_hat = x - eps
    _check_state(x0_hat, T)
    if len(grid) > 1:
        prev = grid[-2]
        sigma2 = eta * schedule.marginal_var[prev]
        z = rng.standard_normal(y.shape[0])
        x = (1.0 - schedule.mix[prev]) * x0_hat + schedule.mix[prev] * y + math.sqrt(sigma2) * z
        _check_state(x, prev)
        if record:
            traj.append((prev, x.copy()))

        for i in range(len(grid) - 2, 0, -1):
            cur = grid[i]
            prev = grid[i - 1]
            eps = np.asarray(eps_fn(x, cur), dtype=np.float64)
            x0_hat = x - eps
            _check_state(x0_hat, cur)
            sigma2 = eta * coarse_posterior_var(schedule, prev, cur)
            gap = schedule.marginal_var[prev] - sigma2
            if gap < 0.0:
                if gap < -1e-12 * schedule.marginal_var[prev]:
                    raise AssertionError(
                        f"noise scale exceeded the marginal variance at step {cur}->{prev}"
                    )
                gap = 0.0
            scale = math.sqrt(gap / schedule.marginal_var[cur])
            mean = (
                (1.0 - schedule.mix[prev]) * x0_hat
                + schedule.mix[prev] * y
                + scale * (x - (1.0 - schedule.mix[cur]) * x0_hat - schedule.mix[cur] * y)
            )
            z = rng.standard_normal(y.shape[0])
            x = mean + math.sqrt(sigma2) * z
            _check_state(x, prev)
            if record:
                traj.append((prev, x.copy()))

        eps = np.asarray(eps_fn(x, grid[0]), dtype=np.float64)
        x0_hat = x - eps
        _check_state(x0_hat, grid[0])

    x0 = x0_hat
    if record:
        traj.append((0, x0.copy()))
    return x0, traj


def ancestral_sample(
    schedule: BridgeSchedule,
    eps_fn,
    y,
    seed: int,
    record_trajectory: bool = False,
) -> tuple[np.ndarray, Trajectory | None]:
    """Full reverse chain over every step t = T..1.

    ``eps_fn(x, t)`` supplies the noise prediction (a trained predictor's
    ``eps_fn`` adapter, or an analytic stand-in). Deterministic given the
    seed.
    """
    grid = tuple(range(1, schedule.T + 1))
    return _run_chain(
        schedule, eps_fn, np.asarray(y, dtype=np.float64), grid, 1.0,
        rng_for(seed, "chain"), record_trajectory,
    )


def accelerated_sample(
    schedule: BridgeSchedule,
    eps_fn,
    y,
    plan: SamplerPlan,
) -> tuple[np.ndarray, Trajectory | None]:
    """Coarse-grid reverse chain per the plan.

    With the dense grid and eta = 1 this reproduces ``ancestral_sample``
    bit for bit under the same seed (shared stepper and noise stream).
    """
    if plan.grid[-1] != schedule.T:
        raise ValueError(f"plan grid must end at T={schedule.T}, got {plan.grid[-1]}")
    return _run_chain(
        schedule, eps_fn, np.asarray(y, dtype=np.float64), plan.grid, plan.eta,
        rng_for(plan.seed, "chain"), plan.record_trajectory,
    )


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per visited step: t, dim_0, ..., dim_{d-1}."""
    if not traj:
        raise ValueError("empty trajectory")
    d = traj[0][1].shape[0]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("t," + ",".join(f"dim_{i}" for i in range(d)) + "\n")
        for t, state in traj:
            f.write(str(int(t)) + "," + ",".join(repr(float(v)) for v in state) + "\n")
