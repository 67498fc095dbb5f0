import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bridgediff.nn import NoisePredictor
from bridgediff.process import reverse_mean
from bridgediff.sampling import (
    NonFiniteState,
    SamplerPlan,
    accelerated_sample,
    ancestral_sample,
    make_grid,
    write_trajectory_csv,
)
from bridgediff.schedule import build_schedule, coarse_posterior_var
from bridgediff.seeding import rng_for


@pytest.fixture(scope="module")
def schedule():
    return build_schedule(30, 1.0)


@pytest.fixture(scope="module")
def model(schedule):
    rng = rng_for(31, "sampler-model")
    model = NoisePredictor.create(2, (12, 12), 8, rng)
    for arr in model.params():
        arr += 0.1 * rng.standard_normal(arr.shape)
    return model


class TestMakeGrid:
    def test_full_grid(self):
        assert make_grid(1000, 1000) == tuple(range(1, 1001))

    def test_single_step(self):
        assert make_grid(1000, 1) == (1000,)

    def test_rounding_rule(self):
        assert make_grid(10, 5) == (2, 4, 6, 8, 10)

    def test_always_ends_at_T(self):
        pairs = [(T, S) for T in range(1, 301) for S in range(1, T + 1)]
        for T, S in [(7, 3), (100, 7), (1000, 200), (2, 2), *pairs]:
            grid = make_grid(T, S)
            assert grid[-1] == T
            assert grid[0] >= 1
            assert all(b > a for a, b in zip(grid, grid[1:]))
            assert len(grid) == S

    def test_bounds(self):
        with pytest.raises(ValueError):
            make_grid(10, 0)
        with pytest.raises(ValueError):
            make_grid(10, 11)


class TestSamplerPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerPlan(grid=())
        with pytest.raises(ValueError):
            SamplerPlan(grid=(3, 3, 5))
        with pytest.raises(ValueError):
            SamplerPlan(grid=(0, 5))
        with pytest.raises(ValueError):
            SamplerPlan(grid=(1, 5), eta=1.5)


class TestAncestral:
    def test_same_seed_bitwise(self, schedule, model):
        y = np.array([0.4, -0.9])
        a, _ = ancestral_sample(schedule, model.eps_fn(30), y, seed=5)
        b, _ = ancestral_sample(schedule, model.eps_fn(30), y, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_trajectory_endpoints(self, schedule, model):
        y = np.array([1.0, 0.25])
        x0, traj = ancestral_sample(schedule, model.eps_fn(30), y, seed=6,
                                    record_trajectory=True)
        assert traj[0][0] == 30
        np.testing.assert_array_equal(traj[0][1], y)
        assert traj[-1][0] == 0
        np.testing.assert_array_equal(traj[-1][1], x0)
        assert np.all(np.isfinite(x0))
        assert len(traj) == 31  # T, T-1, ..., 1, 0

    def test_middle_steps_match_reverse_mean(self, schedule, model):
        # Replay the chain's noise stream and check each interior update
        # against the coefficient-form reverse mean.
        T = schedule.T
        seed = 7
        _, traj = ancestral_sample(schedule, model.eps_fn(T), np.array([0.2, -0.4]),
                                   seed=seed, record_trajectory=True)
        states = dict(traj)
        y = states[T]
        rng = rng_for(seed, "chain")
        rng.standard_normal(2)  # the T -> T-1 draw
        for cur in range(T - 1, 1, -1):
            z = rng.standard_normal(2)
            eps = model.forward(states[cur], cur, T)
            ref = reverse_mean(schedule, states[cur], y, eps, cur)
            expected = ref.mean + math.sqrt(ref.var) * z
            np.testing.assert_allclose(states[cur - 1], expected, atol=1e-12)

    def test_first_move_is_marginal_around_reconstruction(self, schedule, model):
        T = schedule.T
        seed = 8
        y = np.array([0.1, 0.9])
        _, traj = ancestral_sample(schedule, model.eps_fn(T), y, seed=seed,
                                   record_trajectory=True)
        states = dict(traj)
        rng = rng_for(seed, "chain")
        z = rng.standard_normal(2)
        x0_hat = y - model.forward(y, T, T)
        expected = (
            (1 - schedule.mix[T - 1]) * x0_hat
            + schedule.mix[T - 1] * y
            + math.sqrt(schedule.marginal_var[T - 1]) * z
        )
        np.testing.assert_allclose(states[T - 1], expected, atol=1e-15)

    def test_final_step_is_noiseless_reconstruction(self, schedule, model):
        T = schedule.T
        x0, traj = ancestral_sample(schedule, model.eps_fn(T), np.array([0.5, 0.5]),
                                    seed=9, record_trajectory=True)
        states = dict(traj)
        expected = states[1] - model.forward(states[1], 1, T)
        np.testing.assert_array_equal(x0, expected)

    def test_nonfinite_state_aborts_with_step(self, schedule):
        def bad_eps(x, t):
            return np.full_like(x, np.nan) if t == 17 else np.zeros_like(x)

        with pytest.raises(FloatingPointError, match="t=17"):
            ancestral_sample(schedule, bad_eps, np.zeros(2), seed=1)


class TestAccelerated:
    def test_full_grid_eta1_bitwise_equal_to_ancestral(self, schedule, model):
        for seed in (11, 12, 13):
            y = rng_for(seed, "y").normal(size=2)
            ref, ref_traj = ancestral_sample(schedule, model.eps_fn(30), y, seed=seed,
                                             record_trajectory=True)
            plan = SamplerPlan(grid=tuple(range(1, 31)), eta=1.0, seed=seed,
                               record_trajectory=True)
            out, traj = accelerated_sample(schedule, model.eps_fn(30), y, plan)
            np.testing.assert_array_equal(out, ref)
            assert len(traj) == len(ref_traj)
            for (ta, sa), (tb, sb) in zip(traj, ref_traj):
                assert ta == tb
                np.testing.assert_array_equal(sa, sb)

    def test_eta_zero_is_deterministic(self, schedule, model):
        y = np.array([0.2, 0.6])
        grid = make_grid(30, 6)
        outs = []
        for seed in (1, 2, 3):
            plan = SamplerPlan(grid=grid, eta=0.0, seed=seed)
            out, _ = accelerated_sample(schedule, model.eps_fn(30), y, plan)
            outs.append(out)
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[1], outs[2])

    def test_single_point_grid_is_one_shot(self, schedule, model):
        y = np.array([0.3, -0.3])
        plan = SamplerPlan(grid=(30,), eta=1.0, seed=4, record_trajectory=True)
        out, traj = accelerated_sample(schedule, model.eps_fn(30), y, plan)
        np.testing.assert_array_equal(out, y - model.forward(y, 30, 30))
        assert [t for t, _ in traj] == [30, 0]

    def test_coarse_grid_runs_and_starts_at_y(self, schedule, model):
        y = np.array([1.2, -0.8])
        plan = SamplerPlan(grid=make_grid(30, 5), eta=1.0, seed=5, record_trajectory=True)
        out, traj = accelerated_sample(schedule, model.eps_fn(30), y, plan)
        np.testing.assert_array_equal(traj[0][1], y)
        assert traj[0][0] == 30
        assert traj[-1][0] == 0
        assert np.all(np.isfinite(out))

    def test_grid_must_end_at_T(self, schedule, model):
        plan = SamplerPlan(grid=(1, 2, 29), eta=1.0, seed=1)
        with pytest.raises(ValueError, match="grid must end at T=30, got 29"):
            accelerated_sample(schedule, model.eps_fn(30), np.zeros(2), plan)

    def test_grid_past_T_rejected(self, schedule, model):
        plan = SamplerPlan(grid=(1, 2, 31), eta=1.0, seed=(1, 2))
        with pytest.raises(ValueError, match="grid must end at T=30, got 31"):
            accelerated_sample(schedule, model.eps_fn(30), np.zeros((2, 2)), plan)


class TestTrajectoryExport:
    def test_csv_round_values(self, schedule, model, tmp_path):
        y = np.array([0.4, 0.7])
        plan = SamplerPlan(grid=make_grid(30, 4), eta=1.0, seed=6, record_trajectory=True)
        _, traj = accelerated_sample(schedule, model.eps_fn(30), y, plan)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,dim_0,dim_1"
        assert len(lines) == len(traj) + 1
        for (t, state), line in zip(traj, lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == t
            assert [float(f) for f in fields[1:]] == list(state)


class TestBatch:
    """B chains in one call against the same chains run one at a time."""

    def _oracle(self, schedule):
        from bridgediff.oracle import JointGaussianSpec, optimal_eps

        spec = JointGaussianSpec(corr=0.8)
        return lambda x, t: optimal_eps(spec, schedule, t, x)

    def test_oracle_batch_bitwise_equal_to_single_chains(self, schedule):
        eps_fn = self._oracle(schedule)
        y = rng_for(40, "batch-y").normal(size=(9, 2))
        seeds = [100 + b for b in range(9)]
        out, traj = ancestral_sample(schedule, eps_fn, y, seed=seeds, record_trajectory=True)
        assert out.shape == (9, 2)
        for b in range(9):
            one, one_traj = ancestral_sample(schedule, eps_fn, y[b], seed=seeds[b],
                                             record_trajectory=True)
            np.testing.assert_array_equal(out[b], one)
            assert [t for t, _ in traj] == [t for t, _ in one_traj]
            for (_, batch_state), (_, state) in zip(traj, one_traj):
                np.testing.assert_array_equal(batch_state[b], state)

    def test_trained_shape_mlp_batch_within_tolerance(self):
        # The acceptance two-moons architecture at its sampling grid; a
        # batched matmul may round differently from B=1, by far less than
        # the stated 1e-12.
        rng = rng_for(41, "batch-mlp")
        net = NoisePredictor.create(2, (96, 96), 48, rng)
        for arr in net.params():
            arr += 0.1 * rng.standard_normal(arr.shape)
        sch = build_schedule(1000, 1.0)
        y = rng.normal(size=(12, 2))
        plan = SamplerPlan(grid=make_grid(1000, 200), eta=1.0, seed=list(range(12)))
        out, _ = accelerated_sample(sch, net.eps_fn(1000), y, plan)
        for b in range(12):
            one = SamplerPlan(grid=plan.grid, eta=1.0, seed=b)
            ref, _ = accelerated_sample(sch, net.eps_fn(1000), y[b], one)
            np.testing.assert_allclose(out[b], ref, rtol=0, atol=1e-12)

    def test_predrawn_noise_equals_per_step_draws(self):
        block = rng_for(42, "chain").standard_normal((29, 3))
        rng = rng_for(42, "chain")
        per_step = np.array([rng.standard_normal(3) for _ in range(29)])
        np.testing.assert_array_equal(block, per_step)

    def test_each_row_uses_its_own_stream(self, schedule, model):
        # The first move of row b draws the first normals of seed b's stream.
        T = schedule.T
        y = np.array([[0.1, 0.9], [-0.5, 0.2], [0.3, 0.3]])
        seeds = [8, 80, 800]
        _, traj = ancestral_sample(schedule, model.eps_fn(T), y, seed=seeds,
                                   record_trajectory=True)
        first = dict(traj)[T - 1]
        for b, seed in enumerate(seeds):
            z = rng_for(seed, "chain").standard_normal(2)
            x0_hat = y[b] - model.forward(y[b], T, T)
            expected = (
                (1 - schedule.mix[T - 1]) * x0_hat
                + schedule.mix[T - 1] * y[b]
                + math.sqrt(schedule.marginal_var[T - 1]) * z
            )
            np.testing.assert_allclose(first[b], expected, atol=1e-15)

    def test_int_seed_is_shared_by_every_row(self, schedule, model):
        y = np.tile([0.4, -0.2], (3, 1))
        out, _ = ancestral_sample(schedule, model.eps_fn(30), y, seed=5)
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[1], out[2])

    def test_seed_count_must_match_rows(self, schedule, model):
        with pytest.raises(ValueError, match="one seed per chain"):
            ancestral_sample(schedule, model.eps_fn(30), np.zeros((3, 2)), seed=[1, 2])

    def test_plan_keeps_seed_sequence_hashable(self):
        plan = SamplerPlan(grid=(1, 2), seed=[3, 4])
        assert plan.seed == (3, 4)
        hash(plan)

    def test_nonfinite_state_names_step_and_row(self, schedule):
        def bad_eps(x, t):
            eps = np.zeros_like(x)
            if t == 17:
                eps[2] = np.nan
            return eps

        with pytest.raises(NonFiniteState, match="t=17") as info:
            ancestral_sample(schedule, bad_eps, np.zeros((4, 2)), seed=[1, 2, 3, 4])
        assert info.value.step == 17 and info.value.chain == 2


class TestNonFiniteGuard:
    """One finiteness check per interior move still names the step and row
    that a check of x0_hat and then of the new state would, and a
    non-finite prediction ends in ``NonFiniteState``, never in a warning."""

    GRIDS = {"dense": (tuple(range(1, 31)), 1.0), "coarse": (make_grid(30, 7), 0.5)}

    @pytest.mark.parametrize("grid", ["dense", "coarse"])
    @pytest.mark.parametrize("rows", [None, 4])
    @pytest.mark.parametrize("where", ["first", "interior", "final"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_bad_prediction_names_its_step_and_row(self, schedule, grid, rows, where, value):
        grid, eta = self.GRIDS[grid]
        step = {"first": grid[-1], "interior": grid[len(grid) // 2], "final": grid[0]}[where]
        bad_row = 0 if rows is None else 2

        def eps_fn(x, t):
            eps = np.zeros_like(x)
            if t == step:
                eps[bad_row] = value
            return eps

        y = np.zeros(2) if rows is None else np.zeros((rows, 2))
        seed = 5 if rows is None else [5, 6, 7, 8]
        plan = SamplerPlan(grid=grid, eta=eta, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as info:
                accelerated_sample(schedule, eps_fn, y, plan)
        assert (info.value.step, info.value.chain) == (step, bad_row)

    @pytest.mark.parametrize("grid", ["dense", "coarse"])
    def test_overflow_in_a_move_ends_without_a_warning(self, schedule, grid):
        # Row 2's prediction grows by 1e300 a step: finite at t = T, it
        # overflows in the first interior move's eps_fn call.
        grid, eta = self.GRIDS[grid]

        def eps_fn(x, t):
            eps = np.zeros_like(x)
            eps[2] = -1e300 * (x[2] + 1.0)
            return eps

        plan = SamplerPlan(grid=grid, eta=eta, seed=[5, 6, 7, 8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as info:
                accelerated_sample(schedule, eps_fn, np.zeros((4, 2)), plan)
        assert (info.value.step, info.value.chain) == (grid[-2], 2)

    def test_peak_memory_is_about_the_noise_block(self):
        # 256 chains of d = 16 over 200 steps: the pre-drawn noise is the one
        # large array; no other per-move array of that size is planned.
        sch = build_schedule(1000, 1.0)
        y = rng_for(45, "guard-y").normal(size=(256, 16))
        plan = SamplerPlan(grid=make_grid(1000, 200), eta=1.0, seed=list(range(256)))
        noise_bytes = (len(plan.grid) - 1) * y.nbytes
        tracemalloc.start()
        try:
            accelerated_sample(sch, lambda x, t: 0.1 * x, y, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * noise_bytes + 64 * 1024


def _reference_chain(schedule, eps_fn, y, grid, eta, seeds):
    """The stepper with every coefficient taken from the schedule at its
    move, in the float operations and order of the update expression."""
    T = schedule.T
    mix, mv = schedule.mix, schedule.marginal_var
    y = np.array(y, dtype=np.float64)
    noise = np.empty((len(grid) - 1,) + y.shape)
    for b, seed in enumerate(seeds):
        noise[:, b] = rng_for(seed, "chain").standard_normal((len(grid) - 1, y.shape[1]))
    traj = [(T, y.copy())]
    x = y.copy()
    x0_hat = x - eps_fn(x, T)
    if len(grid) > 1:
        prev = grid[-2]
        sigma2 = eta * mv[prev]
        x = (1.0 - mix[prev]) * x0_hat + mix[prev] * y + math.sqrt(sigma2) * noise[0]
        traj.append((prev, x.copy()))
        for i in range(len(grid) - 2, 0, -1):
            cur, prev = grid[i], grid[i - 1]
            x0_hat = x - eps_fn(x, cur)
            sigma2 = eta * coarse_posterior_var(schedule, prev, cur)
            gap = mv[prev] - sigma2
            if gap < 0.0:
                gap = 0.0
            scale = math.sqrt(gap / mv[cur])
            mean = (
                (1.0 - mix[prev]) * x0_hat
                + mix[prev] * y
                + scale * (x - (1.0 - mix[cur]) * x0_hat - mix[cur] * y)
            )
            x = mean + math.sqrt(sigma2) * noise[len(grid) - 1 - i]
            traj.append((prev, x.copy()))
        x0_hat = x - eps_fn(x, grid[0])
    traj.append((0, x0_hat.copy()))
    return x0_hat, traj


class TestPerMovePlan:
    """The stepper reads each move's coefficients from a plan built once per
    call; its chains must be bit for bit those of the per-move formulas."""

    T = 1000

    @pytest.fixture(scope="class")
    def sch(self):
        return build_schedule(self.T, 1.0)

    @pytest.fixture(scope="class")
    def predictors(self, sch):
        from bridgediff.oracle import JointGaussianSpec, optimal_eps

        spec = JointGaussianSpec(corr=0.8)
        rng = rng_for(43, "plan-mlp")
        net = NoisePredictor.create(2, (96, 96), 48, rng,
                                    state_scale=np.sqrt(0.3 + sch.marginal_var))
        for arr in net.params():
            arr += 0.1 * rng.standard_normal(arr.shape)
        return {"oracle": lambda x, t: optimal_eps(spec, sch, t, x), "mlp": net.eps_fn(self.T)}

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("grid", ["dense", "coarse"])
    @pytest.mark.parametrize("predictor", ["oracle", "mlp"])
    @pytest.mark.parametrize("rows", [None, 500])
    def test_bitwise_equal_to_per_move_formulas(self, sch, predictors, predictor, grid, eta, rows):
        grid = tuple(range(1, self.T + 1)) if grid == "dense" else make_grid(self.T, 200)
        eps_fn = predictors[predictor]
        rng = rng_for(44, "plan-y")
        if rows is None:
            y, seeds = rng.normal(size=2), 7
            ref_y, ref_seeds = y[None, :], [7]
        else:
            y, seeds = rng.normal(size=(rows, 2)), [300 + b for b in range(rows)]
            ref_y, ref_seeds = y, seeds
        plan = SamplerPlan(grid=grid, eta=eta, seed=seeds, record_trajectory=True)
        out, traj = accelerated_sample(sch, eps_fn, y, plan)
        ref, ref_traj = _reference_chain(sch, eps_fn, ref_y, grid, eta, ref_seeds)
        if rows is None:
            ref, ref_traj = ref[0], [(t, state[0]) for t, state in ref_traj]
        np.testing.assert_array_equal(out, ref)
        assert [t for t, _ in traj] == [t for t, _ in ref_traj]
        for (_, state), (_, ref_state) in zip(traj, ref_traj):
            np.testing.assert_array_equal(state, ref_state)

    def test_gap_assertion_names_the_step(self, sch):
        # A negative marginal variance at grid point 500 makes the noise
        # scale of the move 505 -> 500 exceed it; at eta = 0 no other move
        # is affected before it.
        import dataclasses

        mv = sch.marginal_var.copy()
        mv[500] = -mv[500]
        broken = dataclasses.replace(sch, marginal_var=mv)
        plan = SamplerPlan(grid=make_grid(self.T, 200), eta=0.0, seed=1)
        with pytest.raises(AssertionError, match="at step 505->500"):
            accelerated_sample(broken, lambda x, t: np.zeros_like(x), np.zeros(2), plan)
