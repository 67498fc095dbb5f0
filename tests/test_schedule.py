import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgediff.schedule import build_schedule, coarse_posterior_var


@pytest.fixture(scope="module")
def t4():
    return build_schedule(4, 1.0)


class TestHandValues:
    # T=4, s=1 evaluated by hand from the closed forms.
    def test_marginal_var(self, t4):
        np.testing.assert_allclose(t4.marginal_var, [0.0, 0.375, 0.5, 0.375, 0.0], atol=1e-15)

    def test_transition_var(self, t4):
        assert t4.transition_var[1] == pytest.approx(0.375, abs=1e-15)
        assert t4.transition_var[2] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert t4.transition_var[3] == pytest.approx(0.25, abs=1e-15)
        assert t4.transition_var[4] == 0.0

    def test_posterior_var(self, t4):
        assert t4.posterior_var[1] == 0.0
        assert t4.posterior_var[2] == pytest.approx(0.25, abs=1e-15)
        assert t4.posterior_var[3] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_reverse_coefficients(self, t4):
        assert t4.coef_state[2] == pytest.approx(1.0, abs=1e-15)
        assert t4.coef_cond[2] == pytest.approx(0.0, abs=1e-15)
        assert t4.coef_noise[2] == pytest.approx(0.5, abs=1e-15)
        assert t4.coef_state[2] + t4.coef_cond[2] == pytest.approx(1.0, abs=1e-15)

    def test_t1000_midpoint(self):
        sch = build_schedule(1000, 1.0)
        assert sch.mix[500] == 0.5
        assert sch.marginal_var[500] == 0.5


def _assert_invariants(sch, tol=1e-12):
    T, s = sch.T, sch.s
    mv, mix, tv, pv = sch.marginal_var, sch.mix, sch.transition_var, sch.posterior_var
    assert mix[0] == 0.0 and mix[T] == 1.0
    assert np.all(np.diff(mix) > 0)
    assert mv[0] == 0.0 and mv[T] == 0.0
    assert np.all(mv[1:T] > 0)
    np.testing.assert_allclose(mv, mv[::-1], atol=tol)
    if T % 2 == 0:
        assert abs(mv[T // 2] - s / 2.0) <= tol
        assert np.argmax(mv) == T // 2
    r = (1.0 - mix[1:]) / (1.0 - mix[:-1])
    np.testing.assert_allclose(mv[1:], r * r * mv[:-1] + tv[1:], atol=tol)
    np.testing.assert_allclose(pv[1:T], tv[1:T] * mv[: T - 1] / mv[1:T], atol=tol)
    assert pv[1] == 0.0
    assert tv[T] == 0.0
    assert np.all(pv[1:T] >= 0.0)
    assert np.all(pv[1:T] <= mv[: T - 1] + tol)
    np.testing.assert_allclose(sch.coef_state[1:T] + sch.coef_cond[1:T], 1.0, atol=tol)


@pytest.mark.parametrize("T", [2, 3, 10, 37, 1000])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 4.0])
def test_invariants_acceptance_grid(T, s):
    _assert_invariants(build_schedule(T, s))


@settings(max_examples=30, deadline=None)
@given(T=st.integers(min_value=2, max_value=300), s=st.floats(min_value=0.05, max_value=16.0))
def test_invariants_random(T, s):
    _assert_invariants(build_schedule(T, s))


class TestDegenerate:
    def test_nan_slots(self, t4):
        # t = 0 has no incoming transition: every transition-level slot is
        # NaN. t = T has a deterministic one: its variance is 0 and only the
        # reverse-step slots are NaN. No other slot is NaN.
        assert t4.mix[0] == 0.0 and t4.marginal_var[0] == 0.0
        for arr in (t4.transition_var, t4.posterior_var, t4.coef_state, t4.coef_cond,
                    t4.coef_noise):
            assert np.isnan(arr[0])
        assert t4.mix[4] == 1.0 and t4.marginal_var[4] == 0.0 and t4.transition_var[4] == 0.0
        assert np.isnan(t4.posterior_var[4])
        assert np.isnan(t4.coef_state[4])
        assert np.isnan(t4.coef_cond[4])
        assert np.isnan(t4.coef_noise[4])
        for arr in (t4.mix, t4.marginal_var, t4.transition_var[1:], t4.posterior_var[1:4],
                    t4.coef_state[1:4], t4.coef_cond[1:4], t4.coef_noise[1:4]):
            assert not np.isnan(arr).any()


class TestBuildValidation:
    @pytest.mark.parametrize("T", [0, 1, -3])
    def test_bad_T(self, T):
        with pytest.raises(ValueError):
            build_schedule(T, 1.0)

    def test_non_integer_T(self):
        with pytest.raises(TypeError):
            build_schedule(4.0, 1.0)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
    def test_bad_s(self, s):
        with pytest.raises(ValueError):
            build_schedule(10, s)

    @pytest.mark.parametrize("s", [1e300, 1.7e308, 5e-324, 1e-160, 1e-200, 1e-300, 1e-320])
    def test_s_giving_a_non_finite_schedule(self, s):
        # Too large, a variance overflows. Too small, a product of two
        # variances underflows: at 1e-200 posterior_var would read 0, at
        # 5e-324 the interior variances would be 0 and the coefficients 0/0.
        kind = "overflow" if s > 1.0 else "underflow"
        with pytest.raises(ValueError, match=re.escape(f"s={s!r} makes the schedule at T=4 {kind}")):
            build_schedule(4, s)

    def test_small_s_that_fits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sch = build_schedule(4, 1e-140)
        np.testing.assert_allclose(sch.posterior_var[1:4] / 1e-140, build_schedule(4, 1.0).posterior_var[1:4],
                                   rtol=1e-12)

    def test_large_s_that_fits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sch = build_schedule(4, 1e150)
        for arr in (sch.marginal_var, sch.transition_var[1:], sch.posterior_var[1:4],
                    sch.coef_state[1:4], sch.coef_cond[1:4], sch.coef_noise[1:4]):
            assert np.isfinite(arr).all()

    def test_arrays_read_only(self, t4):
        with pytest.raises(ValueError):
            t4.marginal_var[1] = 9.0


class TestCoarsePosteriorVar:
    def test_adjacent_matches_schedule_bitwise(self):
        sch = build_schedule(50, 2.0)
        for t in range(2, 50):
            assert coarse_posterior_var(sch, t - 1, t) == sch.posterior_var[t]

    def test_bounded_by_prev_marginal(self):
        sch = build_schedule(100, 1.0)
        for prev, cur in [(1, 5), (10, 80), (40, 99), (3, 4)]:
            pv = coarse_posterior_var(sch, prev, cur)
            assert 0.0 <= pv <= sch.marginal_var[prev]

    def test_rejects_bad_pairs(self):
        sch = build_schedule(10, 1.0)
        good_prev, good_cur = np.array([1, 4, 8]), np.array([2, 6, 9])
        for prev, cur in [(5, 5), (3, 10), (6, 5), (-1, 3), (0, 11)]:
            with pytest.raises(ValueError, match=rf"\({prev}, {cur}\)"):
                coarse_posterior_var(sch, prev, cur)
            with pytest.raises(ValueError, match=rf"\({prev}, {cur}\)"):
                coarse_posterior_var(sch, np.append(good_prev, prev), np.append(good_cur, cur))
        assert coarse_posterior_var(sch, good_prev, good_cur).shape == (3,)

    @pytest.mark.parametrize("grid", ["coarse", "dense"])
    def test_index_arrays_bitwise_equal_to_scalar_calls(self, grid):
        from bridgediff.sampling import make_grid

        sch = build_schedule(1000, 1.0)
        steps = np.array(make_grid(1000, 200) if grid == "coarse" else range(1, 1001))
        steps = steps[steps < 1000]
        if grid == "coarse":
            # Every ordered pair of grid points.
            prev, cur = np.triu_indices(steps.size, k=1)
            prev, cur = steps[prev], steps[cur]
        else:
            # Every move of the dense grid, every jump down to step 1 and
            # every jump down from step 999.
            prev = np.concatenate([steps[:-1], np.ones(steps.size - 1, dtype=int), steps[:-1]])
            cur = np.concatenate([steps[1:], steps[1:], np.full(steps.size - 1, 999)])
            keep = prev < cur
            prev, cur = prev[keep], cur[keep]
        batched = coarse_posterior_var(sch, prev, cur)
        scalar = np.array([coarse_posterior_var(sch, int(p), int(c)) for p, c in zip(prev, cur)])
        assert batched.dtype == np.float64 and batched.shape == prev.shape
        np.testing.assert_array_equal(batched.view(np.int64), scalar.view(np.int64))
