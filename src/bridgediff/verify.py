"""Self-contained invariant suites behind the `verify` CLI subcommand.

Each family returns a :class:`FamilyResult` with its tolerance and the
worst error observed, so the report shows margins rather than bare
booleans. The checker functions accept their subjects as arguments, which
lets the test suite inject deliberately broken implementations and confirm
the families actually bite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import process
from .nn import NoisePredictor
from .oracle import JointGaussianSpec, grid_bayes_posterior, optimal_eps, posterior_grid_bounds
from .sampling import SamplerPlan, accelerated_sample, ancestral_sample
from .schedule import build_schedule
from .seeding import rng_for

SCHEDULE_GRID_T = (2, 3, 10, 37, 1000)
SCHEDULE_GRID_S = (0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class FamilyResult:
    family: str
    tolerance: float
    worst_error: float
    cases: int
    passed: bool
    note: str = ""


def _result(family, tol, worst, cases, note="") -> FamilyResult:
    return FamilyResult(
        family=family,
        tolerance=tol,
        worst_error=float(worst),
        cases=cases,
        passed=bool(worst <= tol),
        note=note,
    )


def check_schedule_identities(tol: float = 1e-12) -> FamilyResult:
    """Endpoints, symmetry, recurrence, posterior-variance formula,
    coefficient sum, and the mid-bridge peak, over the acceptance grid."""
    worst = 0.0
    cases = 0
    for T in SCHEDULE_GRID_T:
        for s in SCHEDULE_GRID_S:
            sch = build_schedule(T, s)
            mv, mix, tv, pv = sch.marginal_var, sch.mix, sch.transition_var, sch.posterior_var
            errs = [
                abs(mix[0]), abs(mix[T] - 1.0), abs(mv[0]), abs(mv[T]),
                float(np.max(np.abs(mv[: T + 1] - mv[::-1]))),
                abs(tv[T]),
            ]
            if np.any(np.diff(mix) <= 0):
                errs.append(math.inf)
            if T % 2 == 0:
                errs.append(abs(mv[T // 2] - s / 2.0))
            if np.any(mv[1:T] <= 0):
                errs.append(math.inf)
            r = (1.0 - mix[1:]) / (1.0 - mix[:-1])
            errs.append(float(np.max(np.abs(mv[1:] - (r * r * mv[:-1] + tv[1:])))))
            errs.append(float(np.max(np.abs(pv[1:T] - tv[1:T] * mv[: T - 1] / mv[1:T]))))
            errs.append(abs(pv[1]))
            below = np.minimum(pv[1:T], 0.0)
            above = np.maximum(pv[1:T] - mv[: T - 1], 0.0)
            errs.append(float(np.max(np.abs(below))))
            errs.append(float(np.max(above)))
            errs.append(float(np.max(np.abs(sch.coef_state[1:T] + sch.coef_cond[1:T] - 1.0))))
            worst = max(worst, max(errs))
            cases += 1
    return _result("schedule-identities", tol, worst, cases)


def check_posterior_vs_grid(
    n_cases: int = 120,
    seed: int = 20260810,
    tol: float = 1e-6,
    posterior_fn=process.posterior,
) -> FamilyResult:
    """Closed-form posterior against the grid-Bayes oracle on random cases."""
    rng = rng_for(seed, "verify", "grid")
    worst = 0.0
    for _ in range(n_cases):
        T = int(rng.choice([4, 10, 50]))
        s = float(rng.choice([0.5, 1.0, 2.0]))
        sch = build_schedule(T, s)
        t = int(rng.integers(2, T))
        x0 = float(rng.normal(0.0, 1.5))
        y = float(rng.normal(0.0, 1.5))
        x_t = float(rng.normal((1.0 - sch.mix[t]) * x0 + sch.mix[t] * y,
                               math.sqrt(sch.marginal_var[t]) + 0.3))
        lo, hi, sd_fine = posterior_grid_bounds(sch, t, x_t, x0, y, width=10.0)
        n_points = int(min(max(1000, math.ceil((hi - lo) / (sd_fine / 10.0))), 400000))
        g_mean, g_var = grid_bayes_posterior(sch, t, x_t, x0, y, lo, hi, n_points)
        post = posterior_fn(sch, np.array([x_t]), np.array([x0]), np.array([y]), t)
        worst = max(worst, abs(float(post.mean[0]) - g_mean), abs(post.var - g_var))
    return _result("posterior-vs-grid", tol, worst, n_cases)


def check_sign_convention(
    n_cases: int = 200,
    seed: int = 20260810,
    tol: float = 1e-12,
    reverse_mean_fn=process.reverse_mean,
) -> FamilyResult:
    """reverse_mean fed the true target must reproduce the posterior mean
    (pins the minus sign on the noise term)."""
    rng = rng_for(seed, "verify", "sign")
    worst = 0.0
    for _ in range(n_cases):
        T = int(rng.choice([4, 10, 100, 1000]))
        s = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        sch = build_schedule(T, s)
        t = int(rng.integers(2, T))
        x0 = rng.normal(0.0, 1.5, size=3)
        y = rng.normal(0.0, 1.5, size=3)
        eps = rng.standard_normal(3)
        x_t = process.forward_sample(sch, x0, y, t, eps)
        target = process.loss_target(sch, x0, y, t, eps)
        approx = reverse_mean_fn(sch, x_t, y, target, t)
        exact = process.posterior(sch, x_t, x0, y, t)
        worst = max(
            worst,
            float(np.max(np.abs(approx.mean - exact.mean))),
            abs(approx.var - exact.var),
        )
    return _result("sign-convention", tol, worst, n_cases)


def check_gradients(
    seed: int = 20260810,
    tol: float = 1e-4,
    per_layer: int = 50,
    step: float = 1e-5,
) -> FamilyResult:
    """Backprop against central finite differences on sampled parameters."""
    rng = rng_for(seed, "verify", "grad")
    model = NoisePredictor.create(3, (16, 12), 8, rng)
    for arr in model.params():  # exercise every layer, including the zero-init output
        arr += 0.05 * rng.standard_normal(arr.shape)
    T = 40
    x = rng.standard_normal((6, 3))
    t = rng.integers(1, T + 1, size=6)
    target = rng.standard_normal((6, 3))
    _, grads = model.loss_and_grads(x, t, target, T)

    worst = 0.0
    cases = 0
    for arr, grad in zip(model.params(), grads):
        flat = arr.reshape(-1)
        picks = rng.choice(flat.size, size=min(per_layer, flat.size), replace=False)
        for idx in picks:
            keep = flat[idx]
            flat[idx] = keep + step
            up, _ = model.loss_and_grads(x, t, target, T)
            flat[idx] = keep - step
            down, _ = model.loss_and_grads(x, t, target, T)
            flat[idx] = keep
            fd = (up - down) / (2.0 * step)
            ad = grad.reshape(-1)[idx]
            rel = abs(ad - fd) / max(abs(ad), abs(fd), 1e-8)
            worst = max(worst, rel)
            cases += 1
    return _result("gradient-check", tol, worst, cases)


def check_sampler_equivalence(seed: int = 20260810) -> FamilyResult:
    """Dense-grid accelerated sampling must match ancestral bit for bit."""
    rng = rng_for(seed, "verify", "sampler")
    T = 25
    sch = build_schedule(T, 1.0)
    model = NoisePredictor.create(2, (12, 12), 8, rng)
    for arr in model.params():
        arr += 0.1 * rng.standard_normal(arr.shape)
    worst = 0.0
    runs = 5
    for i in range(runs):
        y = rng.normal(0.0, 1.0, size=2)
        ref, ref_traj = ancestral_sample(sch, model.eps_fn(T), y, seed=1000 + i,
                                         record_trajectory=True)
        plan = SamplerPlan(grid=tuple(range(1, T + 1)), eta=1.0, seed=1000 + i,
                           record_trajectory=True)
        alt, alt_traj = accelerated_sample(sch, model.eps_fn(T), y, plan)
        if not np.array_equal(ref, alt):
            worst = max(worst, float(np.max(np.abs(ref - alt))))
        for (ta, sa), (tb, sb) in zip(ref_traj, alt_traj):
            if ta != tb or not np.array_equal(sa, sb):
                worst = max(worst, float(np.max(np.abs(sa - sb))), 1e-300)
    return _result("sampler-equivalence", 0.0, worst, runs, note="bitwise")


def check_sampler_batch(
    seed: int = 20260810,
    predictor: str = "oracle",
    sample_fn=accelerated_sample,
) -> FamilyResult:
    """B chains advanced in one call must match the same chains run one by
    one. Bitwise for the elementwise analytic predictor; within 1e-12 for
    the MLP, whose batched matmuls may round differently from B=1."""
    rng = rng_for(seed, "verify", "batch", predictor)
    T, B = 25, 8
    sch = build_schedule(T, 1.0)
    if predictor == "oracle":
        spec = JointGaussianSpec(corr=0.8)

        def eps_fn(x, t):
            return optimal_eps(spec, sch, t, x)

        tol, note = 0.0, "bitwise"
    else:
        model = NoisePredictor.create(2, (12, 12), 8, rng)
        for arr in model.params():
            arr += 0.1 * rng.standard_normal(arr.shape)
        eps_fn, tol, note = model.eps_fn(T), 1e-12, ""
    y = rng.normal(0.0, 1.0, size=(B, 2))
    seeds = [int(v) for v in rng.integers(0, 2**62, size=B)]
    worst = 0.0
    for grid, eta in ((tuple(range(1, T + 1)), 1.0), ((3, 9, 17, T), 0.5)):
        plan = SamplerPlan(grid=grid, eta=eta, seed=seeds, record_trajectory=True)
        batch, batch_traj = sample_fn(sch, eps_fn, y, plan)
        for b in range(B):
            one = SamplerPlan(grid=grid, eta=eta, seed=seeds[b], record_trajectory=True)
            ref, ref_traj = sample_fn(sch, eps_fn, y[b], one)
            if [t for t, _ in ref_traj] != [t for t, _ in batch_traj]:
                worst = math.inf
            pairs = [(ref, batch[b])] + [(sa, sb[b]) for (_, sa), (_, sb) in zip(ref_traj, batch_traj)]
            for a, c in pairs:
                if not np.array_equal(a, c):
                    worst = max(worst, float(np.max(np.abs(a - c))), 1e-300)
    return _result(f"sampler-batch-{predictor}", tol, worst, 2 * B, note=note)


def run_all(seed: int = 20260810) -> list[FamilyResult]:
    return [
        check_schedule_identities(),
        check_posterior_vs_grid(seed=seed),
        check_sign_convention(seed=seed),
        check_gradients(seed=seed),
        check_sampler_equivalence(seed=seed),
        check_sampler_batch(seed=seed, predictor="oracle"),
        check_sampler_batch(seed=seed, predictor="mlp"),
    ]
