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
The module writes no file: ``data.write_samples`` streams the samples
and recorded trajectories of ``bridgediff sample`` to their CSVs.

The stepper advances a (B, d) batch of chains: each grid step makes one
``eps_fn`` call for all B rows, and a (d,) input is a batch of one on the
same path. Every row has its own seed and its own PCG64 stream,
``rng_for(seed_b, "chain")``, from which the row's normals for all moves
are drawn in one call; an int seed is shared by every row, and a bool,
float or str seed is refused (``_row_seeds``). A row's noise is
therefore the same whatever batch it runs in, and with an elementwise
predictor (such as ``oracle.optimal_eps``) its output is bit for bit
that of the chain run alone. A network's batched matmuls may round
differently from B = 1, so with the MLP a row's last bits can depend on
the batch it ran in (within 1e-12; ``verify`` checks both).

Everything in a move that does not depend on the state is planned once
per call: the mixing weights of both ends, the bridge scale and sigma for
every move come from the grid and eta (``coarse_posterior_var`` takes the
whole grid's index arrays) as float64 arrays, which a move reads as 0-d
views (``keep_prev[j, ...]``); a Python float or numpy scalar would be
converted to an array at every multiply. The pre-drawn normals are
scaled by sigma in one multiply, so a move draws sigma z ready-made.
Each planned value is the float a move would compute for itself, and the
update keeps its operation order, so outputs are bit for bit those of
computing every move's coefficients at that move. The gap check (noise
variance within the target marginal) runs over the whole plan before the
first move and names the offending step.

A move's ``mix_cur y`` is the product the move before formed as its
``mix_prev y`` (one move's prev is the next one's cur), so it is carried
over and each move multiplies ``y`` once. Each move guards its new state
with one reduction, ``math.isfinite(x.sum())``. A finite sum proves every
entry finite, since an inf or NaN entry makes the sum inf or NaN. A
non-finite sum runs the exact checks, of the reconstruction and then of
the state, which raise only for a non-finite entry: a state whose entries
are finite but whose sum overflows runs on. Checking the state alone is
exact too: prev < T, so the weight ``1 - mix_prev`` on ``x0_hat`` is
positive and a non-finite reconstruction always makes the state
non-finite. The two checks name the step and row that checking both at
every move would. The moves, their ``eps_fn`` calls included, run under
one ``np.errstate(over="ignore", invalid="ignore")``: a non-finite
prediction, or a move whose arithmetic overflows, ends in
``NonFiniteState`` without a numpy ``RuntimeWarning``. The final
reconstruction checks its own array. On 2 cores with 1 BLAS thread and
numpy 2.4.6, the 0-d views and the sum guard raised the benchmark's
``chain`` throughput (one chain per call, analytic predictor) from
36,352 to 38,952 reverse steps/s, medians of 10 alternated pairs.

Endpoints: the state at t = T is the conditioning input itself and carries
no extra information. The move from T is iteration 0 of the one loop, with
bridge scale 0 (``x_T - (1 - mix_T) x0_hat - mix_T y = y - y``), so it
draws straight from the step-grid[-2] marginal around the reconstructed
data point (variance scaled by eta). The final move outputs the
reconstruction with no noise; with the grid (T,) there are no moves and
that reconstruction is taken at T.

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

from .schedule import BridgeSchedule, coarse_posterior_var, step_indices
from .seeding import rng_for

Trajectory = list[tuple[int, np.ndarray]]


@dataclass(frozen=True)
class SamplerPlan:
    """Step grid and noise policy for one sampling run. The grid's steps
    follow ``schedule.step_indices``; the seeds are checked when it runs."""

    grid: tuple[int, ...]
    eta: float = 1.0
    seed: int | tuple[int, ...] = 0
    record_trajectory: bool = False

    def __post_init__(self):
        if np.ndim(self.seed):  # a sequence of seeds, kept hashable
            object.__setattr__(self, "seed", tuple(self.seed))
        if not (grid := tuple(self.grid)):  # before np.asarray reads () as float64
            raise ValueError("step grid must be non-empty")
        steps = step_indices(grid, 1, grid[-1])  # _run_chain checks that grid[-1] is T
        if steps.ndim != 1 or np.any(steps[1:] <= steps[:-1]):
            raise ValueError(f"step grid must be strictly increasing, got {grid}")
        object.__setattr__(self, "grid", tuple(steps.tolist()))
        if not 0.0 <= float(self.eta) <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        object.__setattr__(self, "eta", float(self.eta))


def make_grid(T: int, S: int) -> tuple[int, ...]:
    """S strictly increasing steps, evenly spaced by rounding, ending at T.
    As T/S >= 1, the rounded i*T/S are distinct and >= 1, and S*T/S is T."""
    if isinstance(S, bool) or not isinstance(S, (int, np.integer)):
        raise TypeError(f"steps must be an integer, got {S!r}")
    if not 1 <= S <= T:
        raise ValueError(f"steps must lie in 1..T={T}, got {S}")
    return tuple(int(math.floor(i * T / S + 0.5)) for i in range(1, S + 1))


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
    """The seed rule of both entry points: an int seed is every row's, a
    sequence gives one per row, and a bool, float or str is a ``TypeError``."""
    seeds = [seed] * rows if isinstance(seed, int) or np.ndim(seed) == 0 else list(seed)
    if bad := [s for s in seeds if isinstance(s, bool) or not isinstance(s, (int, np.integer))]:
        raise TypeError(f"seed must be an integer, got {bad[0]!r}")
    if len(seeds) != rows:
        raise ValueError(f"need one seed per chain: {rows} chains, {len(seeds)} seeds")
    return [int(s) for s in seeds]


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
    moves = len(grid) - 1
    # Row b's normals for every move, drawn from its own stream in one call:
    # the values and order of one standard_normal(d) draw per move.
    noise = np.empty((moves,) + y.shape)
    for b, row_seed in enumerate(_row_seeds(seed, y.shape[0])):
        noise[:, b] = rng_for(row_seed, "chain").standard_normal((moves, y.shape[1]))

    traj: Trajectory | None = [(T, y.copy())] if record else None
    x = y.copy()

    # The per-move plan depends only on the grid and eta, so it is built
    # once, elementwise with the float operations a single move would use,
    # and read as 0-d views, which multiply without the conversion a
    # Python float or numpy scalar takes. Move j goes from curs[j] to
    # prevs[j]. Move 0 leaves T, where x = y makes the bridge term zero:
    # its scale is 0.0 (mv[T] = 0 would make it inf) and its noise the
    # whole step-grid[-2] marginal.
    mix, mv = schedule.mix, schedule.marginal_var
    steps = np.array(grid, dtype=np.intp)
    curs, prevs = steps[:0:-1], steps[-2::-1]
    sigma2 = np.empty(moves)
    sigma2[:1] = eta * mv[prevs[:1]]
    sigma2[1:] = eta * coarse_posterior_var(schedule, prevs[1:], curs[1:])
    mv_prev = mv[prevs]
    gap = mv_prev - sigma2
    exceeded = gap < -1e-12 * mv_prev
    if exceeded.any():
        j = int(np.argmax(exceeded))
        raise AssertionError(
            f"noise scale exceeded the marginal variance at step {curs[j]}->{prevs[j]}"
        )
    gap[gap < 0.0] = 0.0
    scale = np.zeros(moves)
    scale[1:] = np.sqrt(gap[1:] / mv[curs[1:]])
    # sigma z for every move and row in one multiply.
    noise *= np.sqrt(sigma2)[:, None, None]
    keep_prev, mix_prev = 1.0 - mix[prevs], mix[prevs]
    keep_cur = 1.0 - mix[curs]

    # mix_cur[j] is mix_prev[j - 1] (one move's prev is the next one's
    # cur), so a move's mix_cur y is the product the move before made; at
    # T it is y itself. One guard per move, the sum of x alone: a finite
    # sum proves every entry finite. Checking x alone is exact: prev < T,
    # so keep_prev > 0 and a non-finite x0_hat makes x non-finite (inf *
    # c, inf - inf and NaN all propagate). A non-finite sum checks x0_hat,
    # then x, naming the step and row that checking both would; when the
    # sum overflowed from finite entries neither raises. The errstate
    # keeps the arithmetic before the guard, and that sum, from warning.
    mix_y = y
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (cur, prev) in enumerate(zip(grid[:0:-1], grid[-2::-1])):
            eps = np.asarray(eps_fn(x, cur), dtype=np.float64)
            x0_hat = x - eps
            mix_y_cur, mix_y = mix_y, mix_prev[j, ...] * y
            x = (keep_prev[j, ...] * x0_hat + mix_y
                 + scale[j, ...] * (x - keep_cur[j, ...] * x0_hat - mix_y_cur) + noise[j])
            if not math.isfinite(x.sum()):
                _check_state(x0_hat, cur)
                _check_state(x, prev)
            if record:
                traj.append((prev, x.copy()))

    # The final reconstruction, at grid[0] (T itself when the grid is (T,)).
    x0 = x - np.asarray(eps_fn(x, grid[0]), dtype=np.float64)
    _check_state(x0, grid[0])
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
    return _run_chain(
        schedule, eps_fn, y, plan.grid, plan.eta, plan.seed, plan.record_trajectory,
    )
