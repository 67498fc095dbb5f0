from dataclasses import replace

import numpy as np

from bridgediff import process
from bridgediff.process import GaussianParams
from bridgediff.sampling import accelerated_sample
from bridgediff.verify import (
    check_gradients,
    check_posterior_vs_grid,
    check_sampler_batch,
    check_sampler_equivalence,
    check_schedule_identities,
    check_sign_convention,
    run_all,
)


class TestFamiliesPass:
    def test_all_families_pass(self):
        results = run_all(seed=1)
        assert [r.family for r in results] == [
            "schedule-identities",
            "posterior-vs-grid",
            "sign-convention",
            "gradient-check",
            "sampler-equivalence",
            "sampler-batch-oracle",
            "sampler-batch-mlp",
        ]
        for r in results:
            assert r.passed, f"{r.family}: worst {r.worst_error} > tol {r.tolerance}"
            assert r.worst_error <= r.tolerance
            assert r.cases > 0


class TestMutationsCaught:
    def test_sign_flip_fails_sign_family(self):
        def flipped(schedule, x_t, y, eps_pred, t):
            g = process.reverse_mean(schedule, x_t, y, np.asarray(eps_pred), t)
            flipped_mean = (
                schedule.coef_state[t] * np.asarray(x_t, dtype=np.float64)
                + schedule.coef_cond[t] * np.asarray(y, dtype=np.float64)
                + schedule.coef_noise[t] * np.asarray(eps_pred, dtype=np.float64)
            )
            return GaussianParams(mean=flipped_mean, var=g.var)

        result = check_sign_convention(reverse_mean_fn=flipped)
        assert not result.passed
        assert result.worst_error > result.tolerance

    def test_broken_posterior_fails_grid_family(self):
        # The typeset-ambiguous reading of the data coefficient,
        # (1 - mix_{t-1} * tv/mv) instead of (1 - mix_{t-1}) * tv/mv,
        # must be rejected by the grid oracle.
        def ambiguous(schedule, x_t, x0, y, t):
            good = process.posterior(schedule, x_t, x0, y, t)
            mv = schedule.marginal_var[t]
            mv_prev = schedule.marginal_var[t - 1]
            tv = schedule.transition_var[t]
            r = (1.0 - schedule.mix[t]) / (1.0 - schedule.mix[t - 1])
            a = r * mv_prev / mv
            b = 1.0 - schedule.mix[t - 1] * tv / mv
            c = schedule.mix[t - 1] - schedule.mix[t] * r * mv_prev / mv
            mean = a * np.asarray(x_t) + b * np.asarray(x0) + c * np.asarray(y)
            return GaussianParams(mean=mean, var=good.var)

        result = check_posterior_vs_grid(n_cases=40, posterior_fn=ambiguous)
        assert not result.passed

    def test_shared_noise_fails_batch_family(self):
        # A batch that runs every row on the first row's seed must be caught.
        def first_seed_only(schedule, eps_fn, y, plan):
            seed = plan.seed if np.ndim(y) == 1 else plan.seed[0]
            return accelerated_sample(schedule, eps_fn, y, replace(plan, seed=seed))

        for predictor in ("oracle", "mlp"):
            result = check_sampler_batch(predictor=predictor, sample_fn=first_seed_only)
            assert not result.passed


class TestReportContent:
    def test_results_expose_tolerance_and_margin(self):
        r = check_schedule_identities()
        assert r.tolerance == 1e-12
        assert 0.0 <= r.worst_error < r.tolerance

    def test_gradient_family_counts_cases(self):
        r = check_gradients()
        assert r.cases >= 6 * 3  # every weight/bias array contributes
        assert r.passed

    def test_batch_families_state_their_tolerance(self):
        oracle = check_sampler_batch(predictor="oracle")
        mlp = check_sampler_batch(predictor="mlp")
        assert oracle.tolerance == 0.0 and oracle.note == "bitwise" and oracle.worst_error == 0.0
        assert mlp.tolerance == 1e-12 and mlp.passed

    def test_sampler_family_bitwise(self):
        r = check_sampler_equivalence()
        assert r.passed
        assert r.worst_error == 0.0
        assert r.note == "bitwise"
