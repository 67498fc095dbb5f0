import numpy as np
import pytest

from bridgediff.nn import NoisePredictor, _embed_table, _time_embed_rows, time_embed
from bridgediff.seeding import rng_for


class TestTimeEmbed:
    def test_step_zero(self):
        emb = time_embed(0, 100, 16)
        np.testing.assert_array_equal(emb[:8], np.zeros(8))
        np.testing.assert_array_equal(emb[8:], np.ones(8))

    def test_length_and_range(self):
        for dim in (2, 16, 64):
            emb = time_embed(123, 1000, dim)
            assert emb.shape == (dim,)
            assert np.all(np.abs(emb) <= 1.0)

    def test_distinct_steps_distinct_embeddings(self):
        # The slowest frequency pair stays within one revolution over
        # 0..10^4, so adjacent steps (the closest pair on that circle)
        # bound the separation of all pairs.
        dim, T = 16, 10**4
        ts = np.arange(T + 1)
        rows = _time_embed_rows(ts, dim)
        angles = ts * np.exp(-np.log(10000.0) * (dim // 2 - 1) / (dim // 2))
        assert angles[-1] < 2 * np.pi
        adjacent_gap = np.max(np.abs(np.diff(rows, axis=0)), axis=1)
        assert np.all(adjacent_gap > 1e-6)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            time_embed(1, 10, 15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            time_embed(11, 10, 8)


class TestEmbedTable:
    @pytest.mark.parametrize("dim", [4, 6, 8, 32, 48])
    def test_rows_bitwise_equal_to_computed_rows(self, dim):
        T = 1000
        table = _embed_table(T, dim)
        assert table.shape == (T + 1, dim)
        for t in range(T + 1):
            np.testing.assert_array_equal(table[t], _time_embed_rows(np.array([float(t)]), dim)[0])

    def test_read_only_and_cached(self):
        table = _embed_table(40, 8)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        assert _embed_table(40, 8) is table


@pytest.fixture
def model():
    return NoisePredictor.create(3, (16, 12), 8, rng_for(5, "init"))


class TestNoisePredictor:
    def test_zero_init_final_layer(self, model):
        rng = rng_for(6, "x")
        out = model.forward(rng.normal(size=(7, 3)), rng.integers(0, 41, size=7), 40)
        np.testing.assert_array_equal(out, np.zeros((7, 3)))

    def test_deterministic_creation_and_forward(self):
        a = NoisePredictor.create(2, (8,), 4, rng_for(9, "init"))
        b = NoisePredictor.create(2, (8,), 4, rng_for(9, "init"))
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa, pb)
        x = np.array([0.3, -0.7])
        np.testing.assert_array_equal(a.forward(x, 3, 10), b.forward(x, 3, 10))

    def test_output_dim_single_and_batch(self, model):
        assert model.forward(np.zeros(3), 1, 40).shape == (3,)
        assert model.forward(np.zeros((5, 3)), 1, 40).shape == (5, 3)

    def test_param_count(self, model):
        sizes = [(11, 16), (16,), (16, 12), (12,), (12, 3), (3,)]
        assert model.n_params == sum(int(np.prod(s)) for s in sizes)

    def test_step_outside_range_rejected(self, model):
        x = np.ones((2, 3))
        for t in (np.array([0, 41]), np.array([-1, 3])):
            with pytest.raises(ValueError, match="outside"):
                model.forward(x, t, 40)
            with pytest.raises(ValueError, match="outside"):
                model.loss_and_grads(x, t, np.zeros((2, 3)), 40)

    def test_fractional_step_rejected(self, model):
        with pytest.raises(ValueError, match="integer"):
            model.forward(np.ones(3), 2.5, 40)
        np.testing.assert_array_equal(model.forward(np.ones(3), 2.0, 40), model.forward(np.ones(3), 2, 40))

    def test_dim_mismatch_rejected(self, model):
        with pytest.raises(ValueError):
            model.forward(np.zeros(4), 1, 40)

    def test_nonfinite_params_detected(self, model):
        for arr in model.params():
            arr += 0.05
        model.weights[0][0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            model.forward(np.ones(3), 1, 40)

    def test_loss_matches_plain_forward_bitwise(self, model):
        # loss_and_grads and forward share the same arithmetic; pin it by
        # reading the prediction back out of a zero-target loss.
        rng = rng_for(10, "x")
        for arr in model.params():
            arr += 0.1 * rng.standard_normal(arr.shape)
        x = rng.normal(size=(4, 3))
        t = rng.integers(1, 41, size=4)
        pred = model.forward(x, t, 40)
        loss, _ = model.loss_and_grads(x, t, np.zeros((4, 3)), 40)
        assert loss == pytest.approx(float(np.mean(pred * pred)), abs=1e-15)

    def test_perfect_targets_zero_loss_zero_grads(self, model):
        rng = rng_for(11, "x")
        x = rng.normal(size=(4, 3))
        t = rng.integers(1, 41, size=4)
        target = model.forward(x, t, 40)
        loss, grads = model.loss_and_grads(x, t, target, 40)
        assert loss == 0.0
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_duplicated_batch_mean_invariance(self, model):
        rng = rng_for(12, "x")
        for arr in model.params():
            arr += 0.1 * rng.standard_normal(arr.shape)
        x = rng.normal(size=(1, 3))
        t = np.array([7])
        target = rng.normal(size=(1, 3))
        loss1, grads1 = model.loss_and_grads(x, t, target, 40)
        xk = np.tile(x, (5, 1))
        tk = np.tile(t, 5)
        targetk = np.tile(target, (5, 1))
        loss5, grads5 = model.loss_and_grads(xk, tk, targetk, 40)
        assert loss5 == pytest.approx(loss1, abs=1e-14)
        for g1, g5 in zip(grads1, grads5):
            np.testing.assert_allclose(g5, g1, atol=1e-14)

    @staticmethod
    def _gradcheck(model, weighted: bool):
        rng = rng_for(13, "x")
        for arr in model.params():
            arr += 0.05 * rng.standard_normal(arr.shape)
        x = rng.normal(size=(5, 3))
        t = rng.integers(1, 41, size=5)
        target = rng.normal(size=(5, 3))
        w = rng.uniform(0.2, 3.0, size=(5, 1)) if weighted else None
        _, grads = model.loss_and_grads(x, t, target, 40, sample_weight=w)
        h = 1e-5
        for arr, grad in zip(model.params(), grads):
            flat = arr.reshape(-1)
            idxs = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for i in idxs:
                keep = flat[i]
                flat[i] = keep + h
                up, _ = model.loss_and_grads(x, t, target, 40, sample_weight=w)
                flat[i] = keep - h
                down, _ = model.loss_and_grads(x, t, target, 40, sample_weight=w)
                flat[i] = keep
                fd = (up - down) / (2 * h)
                ad = grad.reshape(-1)[i]
                assert abs(ad - fd) <= 1e-4 * max(abs(ad), abs(fd), 1e-8)

    def test_gradcheck_dense(self, model):
        self._gradcheck(model, weighted=False)

    def test_gradcheck_dense_weighted(self, model):
        # Per-row weights of shape (B, 1), as train_step passes coef_noise.
        self._gradcheck(model, weighted=True)

    def test_weight_shape_must_broadcast_to_batch(self, model):
        x, t = np.ones((4, 3)), np.ones(4, dtype=int)
        with pytest.raises(ValueError, match="sample_weight"):
            model.loss_and_grads(x, t, np.zeros((4, 3)), 40, sample_weight=np.ones((2, 4, 3)))

    def test_nonfinite_loss_rejected(self, model):
        with pytest.raises(FloatingPointError):
            model.loss_and_grads(np.ones((1, 3)), np.array([1]), np.full((1, 3), np.inf), 40)

    def test_copy_with_roundtrip(self, model):
        clone = model.copy_with(model.flat)
        for a, b in zip(model.params(), clone.params()):
            np.testing.assert_array_equal(a, b)
            assert a is not b

    def test_create_validation(self):
        with pytest.raises(ValueError):
            NoisePredictor.create(0, (8,), 4, rng_for(1, "i"))
        with pytest.raises(ValueError):
            NoisePredictor.create(2, (), 4, rng_for(1, "i"))
        with pytest.raises(ValueError):
            NoisePredictor.create(2, (8,), 5, rng_for(1, "i"))
        with pytest.raises(ValueError):
            NoisePredictor.create(2, (8,), 4, rng_for(1, "i"), state_scale=np.zeros(5))


class TestFlatStorage:
    """All parameters live in one vector; the per-layer arrays are views."""

    def test_views_tile_the_vector_in_storage_order(self, model):
        shapes = [(11, 16), (16,), (16, 12), (12,), (12, 3), (3,)]
        assert [p.shape for p in model.params()] == shapes
        assert model.flat.shape == (model.n_params,) and model.flat.flags.c_contiguous
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in model.params()]), model.flat)
        for p in model.params():
            assert np.shares_memory(p, model.flat)
        assert [w is p for w, p in zip(model.weights, model.params()[0::2])] == [True] * 3
        assert [b is p for b, p in zip(model.biases, model.params()[1::2])] == [True] * 3

    def test_in_place_edits_through_params_change_forward(self, model):
        x, t = np.ones((2, 3)), np.array([3, 7])
        np.testing.assert_array_equal(model.forward(x, t, 40), np.zeros((2, 3)))
        model.params()[5][1] = 0.25  # output bias
        np.testing.assert_array_equal(model.forward(x, t, 40)[:, 1], [0.25, 0.25])
        model.params()[4][:] = 0.1  # output weights, zero at init
        moved = model.forward(x, t, 40)
        assert np.all(moved[:, 0] != 0.0)
        model.flat[:] = 0.0
        np.testing.assert_array_equal(model.forward(x, t, 40), np.zeros((2, 3)))

    def test_second_call_leaves_first_gradients_unchanged(self, model):
        rng = rng_for(14, "x")
        for arr in model.params():
            arr += 0.1 * rng.standard_normal(arr.shape)
        x, t = rng.normal(size=(5, 3)), rng.integers(1, 41, size=5)
        _, first = model.loss_and_grads(x, t, rng.normal(size=(5, 3)), 40)
        kept = [g.copy() for g in first]
        _, second = model.loss_and_grads(x, t, rng.normal(size=(5, 3)), 40)
        for g, k, g2 in zip(first, kept, second):
            np.testing.assert_array_equal(g, k)
            assert not np.shares_memory(g, g2)
            assert not np.array_equal(g, g2)

    def test_gradients_are_views_of_one_vector_laid_out_like_params(self, model):
        rng = rng_for(15, "x")
        x, t, target = rng.normal(size=(5, 3)), rng.integers(1, 41, size=5), rng.normal(size=(5, 3))
        loss, grads = model.loss_and_grads(x, t, target, 40)
        assert [g.shape for g in grads] == [p.shape for p in model.params()]
        loss_flat, grad = model._loss_and_grad(x, t, target, 40)
        assert loss_flat == loss
        for g, view in zip(grads, model.split(grad)):
            np.testing.assert_array_equal(g, view)

    def test_copy_with_owns_its_storage(self, model):
        clone = model.copy_with(model.flat)
        assert not np.shares_memory(clone.flat, model.flat)
        clone.flat += 1.0
        clone.weights[0][0, 0] = 7.0
        assert not np.any(model.flat == 7.0) and model.flat[0] != clone.flat[0]

    def test_copy_with_rejects_wrong_length(self, model):
        with pytest.raises(ValueError, match="shape"):
            model.copy_with(np.zeros(model.n_params + 1))

    def test_constructor_rejects_a_vector_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="contiguous float64 vector"):
            NoisePredictor(2, 4, (8,), flat=np.zeros(10))


class TestStateScale:
    def test_scaling_divides_state_rows(self):
        scale = np.array([1.0, 2.0, 4.0])
        a = NoisePredictor.create(2, (8,), 4, rng_for(20, "i"))
        b = NoisePredictor.create(2, (8,), 4, rng_for(20, "i"), state_scale=scale)
        for arr_a, arr_b in zip(a.params(), b.params()):
            arr_a += 0.3
            arr_b += 0.3
        x = np.array([[1.0, -2.0], [1.0, -2.0]])
        t = np.array([1, 2])
        out_b = b.forward(x, t, 2)
        out_a = a.forward(x / np.array([[2.0], [4.0]]), t, 2)
        np.testing.assert_array_equal(out_b, out_a)

    def test_gradcheck_with_scale(self):
        scale = np.linspace(1.0, 3.0, 11)
        model = NoisePredictor.create(2, (8,), 4, rng_for(21, "i"), state_scale=scale)
        rng = rng_for(21, "x")
        for arr in model.params():
            arr += 0.1 * rng.standard_normal(arr.shape)
        x = rng.normal(size=(4, 2))
        t = rng.integers(1, 11, size=4)
        target = rng.normal(size=(4, 2))
        _, grads = model.loss_and_grads(x, t, target, 10)
        h = 1e-5
        arr, grad = model.weights[0], grads[0]
        for idx in [(0, 0), (3, 5), (5, 7)]:
            keep = arr[idx]
            arr[idx] = keep + h
            up, _ = model.loss_and_grads(x, t, target, 10)
            arr[idx] = keep - h
            down, _ = model.loss_and_grads(x, t, target, 10)
            arr[idx] = keep
            fd = (up - down) / (2 * h)
            assert abs(grad[idx] - fd) <= 1e-4 * max(abs(grad[idx]), abs(fd), 1e-8)

    def test_copy_with_preserves_scale(self):
        scale = np.array([1.0, 2.0])
        model = NoisePredictor.create(2, (8,), 4, rng_for(22, "i"), state_scale=scale)
        clone = model.copy_with(model.flat)
        np.testing.assert_array_equal(clone.state_scale, scale)
