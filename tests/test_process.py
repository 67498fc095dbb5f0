import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgediff.nn import NoisePredictor
from bridgediff.process import (
    GaussianParams,
    forward_sample,
    loss_target,
    posterior,
    reverse_mean,
)
from bridgediff.schedule import build_schedule
from bridgediff.seeding import rng_for

state = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


@pytest.fixture(scope="module")
def t4():
    return build_schedule(4, 1.0)


def _marginal(sch, x0, y, t):
    """Reference mean and variance of the step-t state given both endpoints,
    read off the schedule arrays."""
    m = sch.mix[t]
    return (1.0 - m) * np.asarray(x0) + m * np.asarray(y), sch.marginal_var[t]


def _transition(sch, x_prev, y, t):
    """Reference mean and variance of the one-step kernel t-1 -> t, read off
    the schedule arrays."""
    r = (1.0 - sch.mix[t]) / (1.0 - sch.mix[t - 1])
    return r * x_prev + (sch.mix[t] - r * sch.mix[t - 1]) * y, sch.transition_var[t]


class TestForwardMarginal:
    """The step-t marginal given both endpoints, and forward_sample's draws from it."""

    def test_start_is_data(self, t4):
        assert _marginal(t4, 1.25, -3.0, 0) == (1.25, 0.0)
        assert forward_sample(t4, 1.25, -3.0, 0, 0.0) == 1.25

    def test_end_is_conditioning(self, t4):
        assert _marginal(t4, 1.25, -3.0, 4) == (-3.0, 0.0)
        assert forward_sample(t4, 1.25, -3.0, 4, 0.0) == -3.0

    def test_hand_value(self, t4):
        mean, var = _marginal(t4, 0.0, 2.0, 2)
        assert mean == pytest.approx(1.0, abs=1e-15)
        assert var == pytest.approx(0.5, abs=1e-15)

    def test_dim_mismatch(self, t4):
        with pytest.raises(ValueError):
            forward_sample(t4, np.zeros(3), np.zeros(2), 1, np.zeros(3))


class TestForwardSample:
    def test_end_returns_conditioning_bit_exactly(self, t4):
        rng = rng_for(7, "test")
        for _ in range(20):
            x0 = rng.normal(size=5) * 100
            y = rng.normal(size=5) * 100
            eps = rng.normal(size=5) * 10
            assert np.array_equal(forward_sample(t4, x0, y, 4, eps), y)

    def test_zero_noise_hits_mean(self, t4):
        x0, y = np.array([0.3, -1.0]), np.array([2.0, 0.5])
        for t in range(5):
            out = forward_sample(t4, x0, y, t, np.zeros(2))
            np.testing.assert_array_equal(out, _marginal(t4, x0, y, t)[0])

    def test_hand_value(self, t4):
        out = forward_sample(t4, 0.0, 2.0, 2, 1.0)
        assert out == pytest.approx(1.0 + math.sqrt(0.5), abs=1e-15)

    def test_step_array_matches_scalar_rows_bitwise(self):
        sch = build_schedule(20, 1.5)
        rng = rng_for(101, "b")
        x0, y, eps = (rng.normal(size=(7, 3)) for _ in range(3))
        t_idx = np.array([0, 20, *rng.integers(1, 20, size=5)])
        batch = forward_sample(sch, x0, y, t_idx, eps)
        for i in range(7):
            row = forward_sample(sch, x0[i], y[i], int(t_idx[i]), eps[i])
            assert batch[i].tobytes() == row.tobytes()
        for bad in (np.array([0, 1, 2, 3, 4, 5, 21]), np.array([-1, 1, 2, 3, 4, 5, 6])):
            with pytest.raises(ValueError, match="outside"):
                forward_sample(sch, x0, y, bad, eps)
        with pytest.raises(TypeError, match="integers"):
            forward_sample(sch, x0, y, t_idx.astype(np.float64), eps)
        with pytest.raises(ValueError, match="batched states"):
            forward_sample(sch, x0[:6], y[:6], t_idx, eps[:6])


class TestBatchOfOne:
    """A scalar or (d,) state with one step is the (1, d) batch at [t]."""

    @pytest.mark.parametrize("T,t", [(2, 0), (2, 1), (2, 2), (37, 18), (1000, 1), (1000, 999)])
    @pytest.mark.parametrize("fn", [forward_sample, loss_target])
    def test_state_matches_batch_of_one_bitwise(self, fn, T, t):
        sch = build_schedule(T, 1.5)
        rng = rng_for(102, "one", T, t)
        x0, y, eps = (rng.normal(size=3) * 5 for _ in range(3))
        one = fn(sch, x0, y, t, eps)
        batch = fn(sch, x0[None], y[None], np.array([t]), eps[None])
        assert one.shape == (3,) and batch.shape == (1, 3)
        assert one.tobytes() == batch.tobytes()

    def test_batch_loss_target_is_forward_sample_minus_x0(self):
        sch = build_schedule(37, 2.0)
        rng = rng_for(103, "batch")
        x0, y, eps = (rng.normal(size=(9, 2)) for _ in range(3))
        t_idx = rng.integers(0, 38, size=9)
        target = loss_target(sch, x0, y, t_idx, eps)
        assert target.tobytes() == (forward_sample(sch, x0, y, t_idx, eps) - x0).tobytes()

    def test_scalar_calls_return_float64(self, t4):
        assert type(forward_sample(t4, 0.5, -1.0, 2, 0.25)) is np.float64
        assert type(loss_target(t4, 0.5, -1.0, 2, 0.25)) is np.float64
        assert forward_sample(t4, 0.5, -1.0, 2, 0.25) == forward_sample(
            t4, np.array([0.5]), np.array([-1.0]), 2, np.array([0.25]))[0]
        assert posterior(t4, 0.6, 0.0, 1.0, 2).mean.shape == ()
        assert reverse_mean(t4, 0.6, 1.0, 0.6, 2).mean.shape == ()

    @pytest.mark.parametrize("t", [np.array([2]), np.array([2, 2])])
    def test_one_step_functions_reject_step_arrays(self, t4, t):
        x = np.zeros(3)
        with pytest.raises(TypeError):
            posterior(t4, x, x, x, t)
        with pytest.raises(TypeError):
            reverse_mean(t4, x, x, x, t)

    @pytest.mark.parametrize("t", [True, np.True_, 2.0, np.array([True, False])])
    def test_bool_and_float_steps_named(self, t4, t):
        x = np.zeros(3) if np.ndim(t) == 0 else np.zeros((2, 3))
        with pytest.raises(TypeError, match="integers"):
            forward_sample(t4, x, x, t, x)
        with pytest.raises(TypeError, match="integers"):
            posterior(t4, x, x, x, t)

    def test_batched_states_rejected(self, t4):
        x = np.zeros((2, 3))
        for fn in (posterior, reverse_mean):
            with pytest.raises(ValueError, match="batched states"):
                fn(t4, x, x, x, 2)
        with pytest.raises(ValueError, match="batched states"):
            forward_sample(t4, x, x, 2, x)
        with pytest.raises(ValueError, match="batched states"):
            forward_sample(t4, x[0], x[0], np.array([2]), x[0])


class TestForwardTransition:
    """The one-step forward kernel, whose chain must reproduce the marginals."""

    def test_end_collapses_to_conditioning(self, t4):
        mean, var = _transition(t4, 0.77, 1.5, 4)
        assert mean == pytest.approx(1.5, abs=1e-15)
        assert var == 0.0

    def test_hand_value(self, t4):
        mean, var = _transition(t4, 0.75, 1.0, 2)
        assert mean == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert var == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("T,s", [(4, 1.0), (10, 0.5), (37, 2.0), (100, 4.0)])
    def test_composition_matches_marginal(self, T, s):
        # Propagate mean/variance through the one-step kernels in closed
        # form; the result must match the direct marginal at every t.
        sch = build_schedule(T, s)
        x0, y = 0.8, -1.3
        mean, var = x0, 0.0
        for t in range(1, T + 1):
            mean, step_var = _transition(sch, mean, y, t)
            r = (1.0 - sch.mix[t]) / (1.0 - sch.mix[t - 1])
            var = r * r * var + step_var
            ref_mean, ref_var = _marginal(sch, x0, y, t)
            assert mean == pytest.approx(float(ref_mean), abs=1e-9)
            assert var == pytest.approx(ref_var, abs=1e-9)


class TestPosterior:
    def test_hand_value(self, t4):
        g = posterior(t4, 0.6, 0.0, 1.0, 2)
        assert g.mean == pytest.approx(0.3, abs=1e-15)
        assert g.var == pytest.approx(0.25, abs=1e-15)

    def test_consensus_fixed_point(self, t4):
        g = posterior(t4, 0.7, 0.7, 0.7, 3)
        assert g.mean == pytest.approx(0.7, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(x_t=state, x0=state, y=state, t=st.integers(2, 99))
    def test_affine_weights_sum_to_one(self, x_t, x0, y, t):
        sch = build_schedule(100, 2.0)
        g = posterior(sch, x_t, x0, y, t)
        shifted = posterior(sch, x_t + 1.0, x0 + 1.0, y + 1.0, t)
        assert float(shifted.mean) - float(g.mean) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0, 1, 4])
    def test_degenerate_steps_rejected(self, t4, t):
        with pytest.raises(ValueError):
            posterior(t4, 0.0, 0.0, 0.0, t)


class TestLossTarget:
    def test_zero_at_start(self, t4):
        out = loss_target(t4, np.array([1.0, -2.0]), np.array([0.5, 3.0]), 0, np.zeros(2))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_hand_value(self, t4):
        assert loss_target(t4, 0.0, 2.0, 2, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_identity_with_forward_sample_exact(self, t4):
        rng = rng_for(11, "test")
        for t in range(5):
            x0 = rng.normal(size=4)
            y = rng.normal(size=4)
            eps = rng.normal(size=4)
            target = loss_target(t4, x0, y, t, eps)
            fs = forward_sample(t4, x0, y, t, eps)
            # Bit-exact in the direction the target is constructed; the
            # rearranged sum re-rounds, so it is pinned at one ulp instead.
            assert np.array_equal(target, fs - x0)
            np.testing.assert_allclose(target + x0, fs, rtol=0, atol=1e-15)

    def test_matches_literal_expression(self):
        sch = build_schedule(50, 1.5)
        rng = rng_for(12, "test")
        for t in [1, 7, 25, 49, 50]:
            x0 = rng.normal(size=3)
            y = rng.normal(size=3)
            eps = rng.normal(size=3)
            literal = sch.mix[t] * (y - x0) + math.sqrt(sch.marginal_var[t]) * eps
            np.testing.assert_allclose(loss_target(sch, x0, y, t, eps), literal, atol=1e-15)

    def test_end_target_is_gap_exactly(self, t4):
        x0 = np.array([0.25, -1.5])
        y = np.array([2.0, 0.125])
        out = loss_target(t4, x0, y, 4, np.array([3.0, -4.0]))
        assert np.array_equal(out, y - x0)


class TestPredictX0:
    """The data endpoint is predicted as x_t - eps: the true target inverts to x0."""

    def test_true_target_recovers_data(self, t4):
        # The target inverts to the data endpoint: x0 = x_t - target.
        rng = rng_for(13, "test")
        x0 = rng.normal(size=6)
        y = rng.normal(size=6)
        eps = rng.normal(size=6)
        x_t = forward_sample(t4, x0, y, 2, eps)
        target = loss_target(t4, x0, y, 2, eps)
        np.testing.assert_allclose(x_t - target, x0, atol=1e-12)


class TestReverseMean:
    def test_true_target_reproduces_posterior(self, t4):
        x_t, x0, y = 0.6, 0.0, 1.0
        target = x_t - x0
        g = reverse_mean(t4, x_t, y, target, 2)
        assert g.mean == pytest.approx(0.3, abs=1e-15)
        assert g.var == pytest.approx(0.25, abs=1e-15)

    def test_posterior_agreement_randomized(self):
        rng = rng_for(14, "test")
        for _ in range(100):
            T = int(rng.choice([4, 10, 100, 1000]))
            s = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
            sch = build_schedule(T, s)
            t = int(rng.integers(2, T))
            x0 = rng.normal(size=2)
            y = rng.normal(size=2)
            eps = rng.standard_normal(2)
            x_t = forward_sample(sch, x0, y, t, eps)
            target = loss_target(sch, x0, y, t, eps)
            approx = reverse_mean(sch, x_t, y, target, t)
            exact = posterior(sch, x_t, x0, y, t)
            np.testing.assert_allclose(approx.mean, exact.mean, atol=1e-12)
            assert approx.var == exact.var

    def test_zero_prediction(self, t4):
        g = reverse_mean(t4, 0.6, 1.0, 0.0, 2)
        expected = t4.coef_state[2] * 0.6 + t4.coef_cond[2] * 1.0
        assert float(g.mean) == expected
        assert g.var == t4.posterior_var[2]

    def test_degenerate_steps_rejected(self, t4):
        for t in (0, 1, 4):
            with pytest.raises(ValueError):
                reverse_mean(t4, 0.0, 0.0, 0.0, t)


class TestTrainingLoss:
    """The simplified objective, mean squared error over the batch with an
    optional per-row weight, as the one loss training runs computes it."""

    T = 40

    def model(self, dim):
        net = NoisePredictor.create(dim, (8,), 4, rng_for(15, "init", dim))
        net.weights[-1][...] = rng_for(15, "out", dim).normal(size=net.weights[-1].shape)
        return net

    def test_perfect_prediction(self):
        net = self.model(3)
        x, t = rng_for(16, "x").normal(size=(4, 3)), np.arange(4)
        loss, _ = net.loss_and_grads(x, t, net.forward(x, t, self.T), self.T)
        assert loss == 0.0

    def test_scalar_case(self):
        net = self.model(1)
        pred = net.forward(np.array([0.5]), 3, self.T)
        loss, _ = net.loss_and_grads(np.array([0.5]), 3, pred + 1.0, self.T)
        assert loss == pytest.approx(1.0, abs=1e-15)

    def test_matches_naive_sum(self):
        net = self.model(1)
        rng = rng_for(15, "test")
        x, t = rng.normal(size=(257, 1)), rng.integers(0, self.T + 1, size=257)
        target = rng.normal(size=(257, 1))
        pred = net.forward(x, t, self.T)
        naive = math.fsum((float(p) - float(q)) ** 2 for p, q in zip(pred[:, 0], target[:, 0])) / 257
        loss, _ = net.loss_and_grads(x, t, target, self.T)
        assert loss == pytest.approx(naive, abs=1e-12)

    def test_weight_scales(self):
        net = self.model(2)
        x, t = np.zeros((1, 2)), np.array([5])
        target = net.forward(x, t, self.T) + np.array([[2.0, 0.0]])
        loss, _ = net.loss_and_grads(x, t, target, self.T, sample_weight=np.array([[0.5]]))
        assert loss == pytest.approx(1.0)

    def test_dim_mismatch(self):
        net = self.model(2)
        with pytest.raises(ValueError):
            net.loss_and_grads(np.zeros((1, 2)), np.array([1]), np.zeros((1, 3)), self.T)


class TestGaussianParams:
    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            GaussianParams(mean=np.zeros(1), var=-0.1)

    def test_rejects_non_finite_variance(self):
        with pytest.raises(ValueError):
            GaussianParams(mean=np.zeros(1), var=math.inf)
