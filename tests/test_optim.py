import math

import numpy as np
import pytest

from bridgediff.nn import NoisePredictor
from bridgediff.optim import (
    AdamState,
    EmaState,
    PlateauLrState,
    adam_step,
    ema_update,
    plateau_lr_step,
)
from bridgediff.seeding import rng_for


class TestAdam:
    def test_zero_gradients_leave_params(self):
        params = np.array([1.0, -2.0, 0.5])
        state = AdamState.for_params(params)
        before = params.copy()
        adam_step(params, np.zeros_like(params), state, lr=0.1)
        np.testing.assert_array_equal(params, before)

    def test_first_step_closed_form(self):
        g = np.array([0.3, -2.0, 1e-12])
        params = np.zeros(3)
        state = AdamState.for_params(params)
        adam_step(params, g.copy(), state, lr=0.01)
        expected = -0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params, expected, atol=1e-15)
        # direction is -sign(g), magnitude ~ lr for non-tiny gradients
        assert params[0] == pytest.approx(-0.01, rel=1e-6)
        assert params[1] == pytest.approx(0.01, rel=1e-7)

    def test_determinism(self):
        def run():
            rng = rng_for(3, "adam")
            params = rng.normal(size=15)
            state = AdamState.for_params(params)
            for _ in range(25):
                adam_step(params, rng.normal(size=params.shape), state, lr=1e-3)
            return params

        np.testing.assert_array_equal(run(), run())

    def test_nonfinite_gradient_rejected(self):
        params = np.zeros(2)
        state = AdamState.for_params(params)
        with pytest.raises(FloatingPointError):
            adam_step(params, np.array([1.0, np.nan]), state, lr=0.1)

    def test_shape_mismatch_rejected(self):
        params = np.zeros(2)
        state = AdamState.for_params(params)
        with pytest.raises(ValueError):
            adam_step(params, np.zeros(3), state, lr=0.1)


class TestEma:
    def test_zero_decay_copies_params(self):
        params = np.array([1.0, 2.0])
        ema = EmaState.from_params(np.zeros(2), decay=0.0, start_step=0, update_interval=1)
        ema_update(ema, params, step=1)
        np.testing.assert_array_equal(ema.shadow, params)

    def test_geometric_convergence_ratio(self):
        params = np.full(3, 2.0)
        ema = EmaState.from_params(np.zeros(3), decay=0.9, start_step=0, update_interval=1)
        gaps = []
        for step in range(1, 6):
            ema_update(ema, params, step)
            gaps.append(abs(ema.shadow[0] - 2.0))
        for a, b in zip(gaps, gaps[1:]):
            assert b / a == pytest.approx(0.9, rel=1e-12)

    def test_start_step_and_interval_gating(self):
        params = np.ones(1)
        ema = EmaState.from_params(np.zeros(1), decay=0.5, start_step=10, update_interval=4)
        updated_at = []
        for step in range(1, 25):
            before = ema.shadow.copy()
            ema_update(ema, params, step)
            if not np.array_equal(before, ema.shadow):
                updated_at.append(step)
        assert updated_at == [12, 16, 20, 24]

    def test_defaults_match_reference_values(self):
        ema = EmaState.from_params(np.zeros(1))
        assert ema.decay == 0.995
        assert ema.update_interval == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            EmaState.from_params(np.zeros(1), decay=1.0)
        with pytest.raises(ValueError):
            EmaState.from_params(np.zeros(1), update_interval=0)


def _per_array_adam(params, grads, m, v, step, lr, beta1, beta2, eps):
    """Reference: Adam applied array by array, with the formulas in the
    order the whole-vector update must reproduce."""
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    for p, g, mm, vv in zip(params, grads, m, v):
        mm *= beta1
        mm += (1.0 - beta1) * g
        vv *= beta2
        vv += (1.0 - beta2) * (g * g)
        p -= lr * (mm / bc1) / (np.sqrt(vv / bc2) + eps)


def _per_array_ema(shadow, params, decay):
    for s, p in zip(shadow, params):
        s *= decay
        s += (1.0 - decay) * p


class TestWholeVectorMatchesPerArray:
    def test_bitwise_over_25_steps_of_real_gradients(self):
        model = NoisePredictor.create(2, (16, 12), 8, rng_for(40, "init"))
        ref = [p.copy() for p in model.params()]
        ref_m = [np.zeros_like(p) for p in ref]
        ref_v = [np.zeros_like(p) for p in ref]
        ref_shadow = [p.copy() for p in ref]
        adam = AdamState.for_params(model.flat, beta1=0.85, beta2=0.995, eps=1e-7)
        ema = EmaState.from_params(model.flat, decay=0.9, start_step=3, update_interval=2)
        rng = rng_for(40, "batches")
        for step in range(1, 26):
            x = rng.normal(size=(32, 2))
            t = rng.integers(1, 41, size=32)
            target = rng.normal(size=(32, 2))
            _, grads = model.loss_and_grads(x, t, target, 40)
            lr = 1e-2 * rng.uniform(0.1, 1.0)
            adam_step(model.flat, np.concatenate([g.ravel() for g in grads]), adam, lr)
            _per_array_adam(ref, grads, ref_m, ref_v, step, lr, 0.85, 0.995, 1e-7)
            ema_update(ema, model.flat, step)
            if step >= 3 and step % 2 == 0:
                _per_array_ema(ref_shadow, ref, 0.9)
            pairs = [(model.flat, ref), (adam.m, ref_m), (adam.v, ref_v), (ema.shadow, ref_shadow)]
            for vec, arrays in pairs:
                for got, want in zip(model.split(vec), arrays):
                    np.testing.assert_array_equal(got, want)
        assert adam.step == 25


class TestPlateauLr:
    def make(self, patience=3, cooldown=2, threshold=1e-4):
        return PlateauLrState.create(
            max_lr=1e-4, min_lr=5e-7, factor=0.5, patience=patience,
            cooldown=cooldown, threshold=threshold,
        )

    def test_improving_metric_keeps_lr(self):
        state = self.make()
        for metric in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5):
            plateau_lr_step(state, metric)
        assert state.current_lr == 1e-4

    def test_flat_metric_halves_once_after_patience(self):
        state = self.make(patience=3, cooldown=10)
        for _ in range(3 + 1):
            plateau_lr_step(state, 0.5)
        assert state.current_lr == pytest.approx(5e-5)
        plateau_lr_step(state, 0.5)
        assert state.current_lr == pytest.approx(5e-5)  # cooldown holds

    def test_cooldown_then_second_cut(self):
        state = self.make(patience=2, cooldown=2)
        calls = 0
        while state.current_lr == 1e-4:
            plateau_lr_step(state, 0.5)
            calls += 1
        first_cut = calls
        while state.current_lr == pytest.approx(5e-5):
            plateau_lr_step(state, 0.5)
            calls += 1
        # cooldown consumes 2 calls, then patience 2 more
        assert calls - first_cut == 4

    def test_never_below_min_lr(self):
        state = self.make(patience=1, cooldown=0)
        for _ in range(200):
            plateau_lr_step(state, 1.0)
        assert state.current_lr == 5e-7
        assert state.min_lr <= state.current_lr <= state.max_lr

    def test_threshold_blocks_marginal_improvements(self):
        state = self.make(patience=2, cooldown=0, threshold=1e-2)
        plateau_lr_step(state, 1.0)
        # improvements smaller than the threshold count as bad
        plateau_lr_step(state, 1.0 - 5e-3)
        plateau_lr_step(state, 1.0 - 9e-3)
        assert state.current_lr == pytest.approx(5e-5)

    def test_nonfinite_metric_rejected(self):
        state = self.make()
        with pytest.raises(ValueError):
            plateau_lr_step(state, math.nan)

    def test_paper_default_table(self):
        state = PlateauLrState.create(max_lr=1.0e-4)
        assert state.min_lr == 5.0e-7
        assert state.factor == 0.5
        assert state.patience == 3000
        assert state.cooldown == 2000
        assert state.threshold == 1.0e-4
