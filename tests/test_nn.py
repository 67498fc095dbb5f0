import math
import sys
import threading
import warnings

import numpy as np
import pytest

from bridgediff import cli, parallel
from bridgediff.checkpoint import Checkpoint, save_checkpoint
from bridgediff.data import gen_two_moons_paired, save
from bridgediff.nn import NoisePredictor, _embed_table
from bridgediff.optim import AdamState, EmaState, PlateauLrState
from bridgediff.seeding import rng_for


def _embed_row(t, dim):
    """Reference embedding of step t: sines, then cosines, of t times a
    geometric frequency ladder."""
    half = dim // 2
    angles = float(t) * np.exp(-math.log(10000.0) * np.arange(half) / half)
    return np.concatenate([np.sin(angles), np.cos(angles)])


class TestTimeEmbed:
    def test_step_zero(self):
        emb = _embed_table(100, 16)[0]
        np.testing.assert_array_equal(emb[:8], np.zeros(8))
        np.testing.assert_array_equal(emb[8:], np.ones(8))

    def test_length_and_range(self):
        for dim in (2, 16, 64):
            table = _embed_table(1000, dim)
            assert table.shape == (1001, dim)
            assert np.all(np.abs(table) <= 1.0)

    def test_distinct_steps_distinct_embeddings(self):
        # The slowest frequency pair stays within one revolution over
        # 0..10^4, so adjacent steps (the closest pair on that circle)
        # bound the separation of all pairs.
        dim, T = 16, 10**4
        ts = np.arange(T + 1)
        rows = _embed_table(T, dim)
        angles = ts * np.exp(-np.log(10000.0) * (dim // 2 - 1) / (dim // 2))
        assert angles[-1] < 2 * np.pi
        adjacent_gap = np.max(np.abs(np.diff(rows, axis=0)), axis=1)
        assert np.all(adjacent_gap > 1e-6)


class TestEmbedTable:
    @pytest.mark.parametrize("dim", [4, 6, 8, 32, 48])
    def test_rows_bitwise_equal_to_computed_rows(self, dim):
        T = 1000
        table = _embed_table(T, dim)
        assert table.shape == (T + 1, dim)
        for t in range(T + 1):
            np.testing.assert_array_equal(table[t], _embed_row(t, dim))

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
        assert model.flat.size == sum(int(np.prod(s)) for s in sizes)

    def test_step_outside_range_rejected(self, model):
        x = np.ones((2, 3))
        for t in (np.array([0, 41]), np.array([-1, 3]), 41, -1, np.int64(41)):
            with pytest.raises(ValueError, match="outside"):
                model.forward(x, t, 40)
            with pytest.raises(ValueError, match="outside"):
                model.loss_and_grads(x, t, np.zeros((2, 3)), 40)

    def test_fractional_step_rejected(self, model):
        with pytest.raises(ValueError, match="integer"):
            model.forward(np.ones(3), 2.5, 40)
        np.testing.assert_array_equal(model.forward(np.ones(3), 2.0, 40), model.forward(np.ones(3), 2, 40))

    def test_step_count_must_match_batch(self, model):
        with pytest.raises(ValueError):
            model.forward(np.ones((3, 3)), np.array([1, 2]), 40)

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
        assert model.flat.shape == (sum(int(np.prod(s)) for s in shapes),)
        assert model.flat.flags.c_contiguous
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
            model.copy_with(np.zeros(model.flat.size + 1))

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

    @pytest.mark.parametrize("scale", [[np.nan, 1.0, np.inf], [1.0, np.nan], [1.0, np.inf]])
    def test_nonfinite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="finite, positive"):
            NoisePredictor.create(2, (8,), 4, rng_for(1, "i"), state_scale=scale)

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("rows", [1, 40, 300])
    def test_scalar_step_bitwise_equal_to_step_per_row(self, rows, scaled):
        # The sampler's one-step call against the same step given per row,
        # on the acceptance architecture.
        T = 1000
        rng = rng_for(23, "scalar-step")
        scale = np.linspace(0.3, 1.4, T + 1) if scaled else None
        net = NoisePredictor.create(2, (96, 96), 48, rng, state_scale=scale)
        for arr in net.params():
            arr += 0.1 * rng.standard_normal(arr.shape)
        x = rng.normal(size=(rows, 2))
        for t in (0, 1, 5, 500, T):
            per_row = net.forward(x, np.full(rows, t), T)
            np.testing.assert_array_equal(net.forward(x, t, T), per_row)
            np.testing.assert_array_equal(net.forward(x, np.int64(t), T), per_row)

    def test_copy_with_preserves_scale(self):
        scale = np.array([1.0, 2.0])
        model = NoisePredictor.create(2, (8,), 4, rng_for(22, "i"), state_scale=scale)
        clone = model.copy_with(model.flat)
        np.testing.assert_array_equal(clone.state_scale, scale)


def _whole_batch_forward(net, x, t, T):
    # The plain forward on the whole batch in one pass, each hidden layer's
    # elementwise ops as plain expressions: the bits the row blocks must give.
    emb = _embed_table(T, net.embed_dim)[t]
    state = x if net.state_scale is None else x / net.state_scale[t, None]
    h = np.empty((x.shape[0], net.data_dim + net.embed_dim))
    h[:, : net.data_dim] = state
    h[:, net.data_dim :] = emb
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ w + b
        h = z * (1.0 / (1.0 + np.exp(-z)))
    return h @ net.weights[-1] + net.biases[-1]


class TestBlockedForward:
    """Forwards over more than 2048 rows run the hidden layers in 1024-row
    blocks on several workers: the whole batch's bits for any worker count,
    warnings and failures handled as on one thread."""

    T = 1000

    def net(self, scaled):
        rng = rng_for(70, "blocked")
        scale = np.linspace(0.3, 1.4, self.T + 1) if scaled else None
        net = NoisePredictor.create(2, (96, 96), 48, rng, state_scale=scale)
        for arr in net.params():
            arr += 0.1 * rng.standard_normal(arr.shape)
        return net

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("rows", [2047, 2048, 2049, 3073, 18000])
    def test_bitwise_equal_to_whole_batch_for_any_worker_count(self, monkeypatch, rows, scaled):
        net = self.net(scaled)
        rng = rng_for(71, "blocked", rows)
        x = rng.normal(size=(rows, 2))
        per_row = rng.integers(0, self.T + 1, size=rows)
        expected = {"scalar": _whole_batch_forward(net, x, 500, self.T),
                    "per_row": _whole_batch_forward(net, x, per_row, self.T)}
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(parallel, "worker_count", lambda: workers)
            np.testing.assert_array_equal(net.forward(x, 500, self.T), expected["scalar"])
            np.testing.assert_array_equal(net.forward(x, per_row, self.T), expected["per_row"])

    @pytest.mark.parametrize("rows,threads", [(2048, 1), (2049, 2), (18000, 4)])
    def test_blocks_and_workers(self, monkeypatch, rows, threads):
        # Whole up to 2048 rows; above, blocks of at least 1024 rows, at most
        # four workers whatever the CPU count.
        monkeypatch.setattr(parallel, "worker_count", lambda: 64)
        hidden, seen = NoisePredictor._hidden, []

        def record(self, xb, *args, **kwargs):
            seen.append((threading.get_ident(), xb.shape[0]))
            return hidden(self, xb, *args, **kwargs)

        monkeypatch.setattr(NoisePredictor, "_hidden", record)
        self.net(False).forward(np.zeros((rows, 2)), 1, self.T)
        sizes = sorted(n for _, n in seen)
        if rows <= 2048:
            assert sizes == [rows]
        else:
            assert sum(sizes) == rows and len(sizes) == rows // 1024
            assert sizes[0] == 1024 and sizes[-1] < 2048
        assert len({ident for ident, _ in seen}) <= min(threads, parallel.MAX_WORKERS)

    def test_overflow_in_workers_warns_nowhere(self, monkeypatch):
        # Every block overflows; the workers run under the caller's silenced
        # settings, so the only report is the caller's one error.
        monkeypatch.setattr(parallel, "worker_count", lambda: 3)
        net = self.net(False)
        net.weights[0][:2] = 10.0  # the first layer overflows to +-inf
        x = np.full((5000, 2), 1.7e308)
        x[::2] *= -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="from finite parameters"):
                net.forward(x, 7, self.T)

    def _fail_on_second_block(self, monkeypatch, workers=2):
        monkeypatch.setattr(parallel, "worker_count", lambda: workers)
        hidden, lock, calls = NoisePredictor._hidden, threading.Lock(), []

        def fail_second(self, xb, *args, **kwargs):
            with lock:
                calls.append(xb.shape[0])
                second = len(calls) == 2
            if second:
                raise MemoryError("Unable to allocate 768. KiB")
            return hidden(self, xb, *args, **kwargs)

        monkeypatch.setattr(NoisePredictor, "_hidden", fail_second)
        return calls

    def test_worker_failure_raised_in_caller(self, monkeypatch):
        calls = self._fail_on_second_block(monkeypatch)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(MemoryError, match="768"):
                self.net(True).forward(np.zeros((18000, 2)), 3, self.T)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert len(calls) < 17  # the others stop claiming blocks

    def test_worker_out_of_memory_in_sample_exits_two(self, tmp_path, monkeypatch, capsys):
        # 2,500 chains in one block of the CLI give 2,500-row forwards.
        pairs = tmp_path / "pairs.csv"
        save(gen_two_moons_paired(n=500, noise_sd=0.05, seed=72), pairs)
        net = self.net(True)
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(ckpt, Checkpoint(
            T=self.T, s=1.0, step=0, model=net, ema=EmaState.from_params(net.flat),
            adam=AdamState.for_params(net.flat), plateau=PlateauLrState.create(1e-3),
        ))
        monkeypatch.setattr(cli, "SAMPLE_BLOCK", 4096)
        self._fail_on_second_block(monkeypatch)
        before = threading.active_count()
        out = tmp_path / "out"
        code = cli.main(["sample", "--checkpoint", str(ckpt), "--data", str(pairs), "--n", "500",
                         "--k", "5", "--steps", "3", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 768. KiB\n"
        assert list(out.iterdir()) == []
        assert threading.active_count() == before
