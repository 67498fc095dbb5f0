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

The stepper advances a (B, d) batch of chains: each grid step makes one
``eps_fn`` call for all B rows, and a (d,) input is a batch of one on the
same path. Every row has its own seed and its own PCG64 stream,
``rng_for(seed_b, "chain")``, from which the row's normals for all moves
are drawn in one call; an int seed is shared by every row. A row's noise
is therefore the same whatever batch it runs in, and with an elementwise
predictor (such as ``oracle.optimal_eps``) its output is bit for bit that
of the chain run alone. A network's batched matmuls may round differently
from B = 1, so with the MLP a row's last bits can depend on the batch it
ran in (within 1e-12; ``verify`` checks both).

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
    seed: int | tuple[int, ...] = 0
    record_trajectory: bool = False

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)):
            object.__setattr__(self, "seed", tuple(int(s) for s in self.seed))
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


class NonFiniteState(FloatingPointError):
    """A chain's state left the finite floats; ``chain`` is its batch row."""

    def __init__(self, step: int, chain: int):
        super().__init__(f"non-finite state while sampling at step t={step} in chain {chain}")
        self.step = step
        self.chain = chain


def _check_state(x: np.ndarray, t: int) -> None:
    finite = np.isfinite(x)
    if not finite.all():
        raise NonFiniteState(t, int(np.flatnonzero(~finite.all(axis=1))[0]))


def _row_seeds(seed, rows: int) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)] * rows
    seeds = [int(s) for s in seed]
    if len(seeds) != rows:
        raise ValueError(f"need one seed per chain: {rows} chains, {len(seeds)} seeds")
    return seeds


def _run_chain(
    schedule: BridgeSchedule,
    eps_fn,
    y,
    grid: tuple[int, ...],
    eta: float,
    seed,
    record: bool,
) -> tuple[np.ndarray, Trajectory | None]:
    T = schedule.T
    y = np.array(y, dtype=np.float64)
    single = y.ndim == 1
    if single:
        y = y[None, :]
    if y.ndim != 2:
        raise ValueError(f"conditioning input must be a (d,) state or a (B, d) batch, got shape {y.shape}")
    if grid[-1] != T:
        raise ValueError(f"step grid must end at T={T}, got {grid[-1]}")
    # Row b's normals for every move, drawn from its own stream in one call:
    # the values and order of one standard_normal(d) draw per move.
    noise = np.empty((len(grid) - 1,) + y.shape)
    for b, row_seed in enumerate(_row_seeds(seed, y.shape[0])):
        noise[:, b] = rng_for(row_seed, "chain").standard_normal((len(grid) - 1, y.shape[1]))

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
        x = (1.0 - schedule.mix[prev]) * x0_hat + schedule.mix[prev] * y + math.sqrt(sigma2) * noise[0]
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
            x = mean + math.sqrt(sigma2) * noise[len(grid) - 1 - i]
            _check_state(x, prev)
            if record:
                traj.append((prev, x.copy()))

        eps = np.asarray(eps_fn(x, grid[0]), dtype=np.float64)
        x0_hat = x - eps
        _check_state(x0_hat, grid[0])

    x0 = x0_hat
    if record:
        traj.append((0, x0.copy()))
    if single:
        return x0[0], None if traj is None else [(t, state[0]) for t, state in traj]
    return x0, traj


def ancestral_sample(
    schedule: BridgeSchedule,
    eps_fn,
    y,
    seed,
    record_trajectory: bool = False,
) -> tuple[np.ndarray, Trajectory | None]:
    """Full reverse chain over every step t = T..1.

    ``eps_fn(x, t)`` supplies the noise prediction for a (B, d) state (a
    trained predictor's ``eps_fn`` adapter, or an analytic stand-in).
    ``y`` is one (d,) input or a (B, d) batch, ``seed`` an int or one int
    per row. Deterministic given the seeds.
    """
    grid = tuple(range(1, schedule.T + 1))
    return _run_chain(schedule, eps_fn, y, grid, 1.0, seed, record_trajectory)


def accelerated_sample(
    schedule: BridgeSchedule,
    eps_fn,
    y,
    plan: SamplerPlan,
) -> tuple[np.ndarray, Trajectory | None]:
    """Coarse-grid reverse chain per the plan; ``y`` and ``plan.seed`` as
    for ``ancestral_sample``.

    With the dense grid and eta = 1 this reproduces ``ancestral_sample``
    bit for bit under the same seed (shared stepper and noise stream).
    """
    if plan.grid[-1] != schedule.T:
        raise ValueError(f"plan grid must end at T={schedule.T}, got {plan.grid[-1]}")
    return _run_chain(
        schedule, eps_fn, y, plan.grid, plan.eta, plan.seed, plan.record_trajectory,
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
