import warnings

import numpy as np
import pytest

from bridgediff.checkpoint import load_checkpoint
from bridgediff.data import gen_joint_gaussian
from bridgediff.nn import NoisePredictor
from bridgediff.optim import AdamState
from bridgediff.oracle import JointGaussianSpec
from bridgediff.sampling import ancestral_sample
from bridgediff.schedule import build_schedule
from bridgediff.seeding import rng_for
from bridgediff.training import TrainConfig, run_training, train_step
from bridgediff.process import forward_sample


@pytest.fixture(scope="module")
def gauss_dataset():
    return gen_joint_gaussian(JointGaussianSpec(corr=0.8), dim=1, n=4000, seed=100)


def smoke_config(**overrides):
    base = dict(
        seed=100,
        T=50,
        s=1.0,
        batch_size=32,
        max_steps=40,
        hidden=(16, 16),
        embed_dim=8,
        lr=1e-3,
        ema_decay=0.9,
        ema_update_interval=2,
        ema_start_step=0,
        plateau_patience=5,
        plateau_cooldown=2,
        checkpoint_interval=20,
        validation_interval=10,
        val_fraction=0.1,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainStep:
    def test_deterministic_loss_trace(self, gauss_dataset):
        def run():
            sch = build_schedule(50, 1.0)
            model = NoisePredictor.create(1, (16, 16), 8, rng_for(100, "init"))
            adam = AdamState.for_params(model.flat)
            losses = []
            for step in range(1, 11):
                rng = rng_for(100, "step", step)
                rows = rng.integers(0, gauss_dataset.n, size=32)
                losses.append(
                    train_step(model, sch, gauss_dataset.x0[rows], gauss_dataset.y[rows],
                               adam, 1e-3, rng)
                )
            return losses

        assert run() == run()

    def test_weighted_mode_avoids_final_step(self, gauss_dataset):
        sch = build_schedule(50, 1.0)
        model = NoisePredictor.create(1, (8,), 8, rng_for(1, "init"))
        adam = AdamState.for_params(model.flat)
        loss = train_step(
            model, sch, gauss_dataset.x0[:64], gauss_dataset.y[:64], adam, 1e-3,
            rng_for(1, "step", 1), weighted=True,
        )
        assert np.isfinite(loss)

    def test_empty_batch_rejected(self, gauss_dataset):
        sch = build_schedule(50, 1.0)
        model = NoisePredictor.create(1, (8,), 8, rng_for(1, "init"))
        adam = AdamState.for_params(model.flat)
        with pytest.raises(ValueError):
            train_step(model, sch, np.zeros((0, 1)), np.zeros((0, 1)), adam, 1e-3,
                       rng_for(1, "step", 1))


class TestRunTraining:
    def test_zero_steps_emit_initial_checkpoint_only(self, gauss_dataset, tmp_path):
        result = run_training(smoke_config(max_steps=0), gauss_dataset, tmp_path)
        assert result.checkpoint_path.exists()
        ckpt = load_checkpoint(result.checkpoint_path)
        assert ckpt.step == 0
        # zero-init final layer: the fresh model predicts zero everywhere
        out = ckpt.model.forward(np.zeros((3, 1)), np.array([1, 2, 3]), 50)
        np.testing.assert_array_equal(out, np.zeros((3, 1)))
        assert result.metrics_path.read_text(encoding="utf-8") == "step,loss,lr,val_loss\n"

    def test_first_step_loss_is_mean_squared_target(self, gauss_dataset, tmp_path):
        config = smoke_config(max_steps=1)
        result = run_training(config, gauss_dataset, tmp_path)
        line = result.metrics_path.read_text(encoding="utf-8").splitlines()[1]
        logged = float(line.split(",")[1])

        sch = build_schedule(config.T, config.s)
        n_val = max(1, int(round(config.val_fraction * gauss_dataset.n)))
        perm = rng_for(config.seed, "split").permutation(gauss_dataset.n)
        train_rows = perm[n_val:]
        rng = rng_for(config.seed, "step", 1)
        rows = rng.integers(0, len(train_rows), size=config.batch_size)
        x0 = gauss_dataset.x0[train_rows][rows]
        y = gauss_dataset.y[train_rows][rows]
        t_idx = rng.integers(1, config.T + 1, size=config.batch_size)
        eps = rng.standard_normal(x0.shape)
        target = forward_sample(sch, x0, y, t_idx, eps) - x0
        assert logged == pytest.approx(float(np.mean(target * target)), abs=1e-15)

    def test_metrics_format_and_checkpoints(self, gauss_dataset, tmp_path):
        result = run_training(smoke_config(), gauss_dataset, tmp_path)
        lines = result.metrics_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step,loss,lr,val_loss"
        assert len(lines) == 41
        # validation column filled exactly on the validation grid
        for line in lines[1:]:
            step, loss, lr, val = line.split(",")
            assert (val != "") == (int(step) % 10 == 0 or int(step) == 40)
            float(loss), float(lr)
        assert (tmp_path / "ckpt_00000020.bin").exists()
        assert result.checkpoint_path == tmp_path / "ckpt_final.bin"
        assert load_checkpoint(result.checkpoint_path).step == 40

    def test_rerun_is_byte_identical(self, gauss_dataset, tmp_path):
        r1 = run_training(smoke_config(), gauss_dataset, tmp_path / "a")
        r2 = run_training(smoke_config(), gauss_dataset, tmp_path / "b")
        assert r1.metrics_path.read_bytes() == r2.metrics_path.read_bytes()
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()

    def test_resume_reproduces_uninterrupted_run(self, gauss_dataset, tmp_path):
        full = run_training(smoke_config(), gauss_dataset, tmp_path / "full")
        half = run_training(smoke_config(max_steps=20), gauss_dataset, tmp_path / "half")
        resumed = run_training(
            smoke_config(), gauss_dataset, tmp_path / "resumed",
            resume_from=half.checkpoint_path,
        )
        assert full.checkpoint_path.read_bytes() == resumed.checkpoint_path.read_bytes()
        full_rows = full.metrics_path.read_text(encoding="utf-8").splitlines()[1:]
        resumed_rows = resumed.metrics_path.read_text(encoding="utf-8").splitlines()[1:]
        assert resumed_rows == full_rows[20:]

    def test_resume_rejects_mismatched_schedule(self, gauss_dataset, tmp_path):
        half = run_training(smoke_config(max_steps=5), gauss_dataset, tmp_path / "h")
        with pytest.raises(ValueError, match="schedule"):
            run_training(smoke_config(T=60), gauss_dataset, tmp_path / "r",
                         resume_from=half.checkpoint_path)

    def test_degenerate_pairing_trains_to_noise_floor(self, tmp_path):
        # y identical to x0: the drift term of the target vanishes and
        # training settles near the pure-noise floor. Sampling then returns
        # inputs near-unchanged, judged against the analytic-predictor
        # chain, which bounds what any predictor can do on this task
        # (~0.33 mean error at this variance scale).
        spec = JointGaussianSpec(mean0=0.0, meany=0.0, var0=1.0, vary=1.0, corr=1.0)
        ds = gen_joint_gaussian(spec, dim=1, n=4000, seed=7)
        np.testing.assert_array_equal(ds.x0, ds.y)
        config = smoke_config(T=50, s=0.1, max_steps=1500, batch_size=64,
                              hidden=(32, 32), embed_dim=16, lr=3e-3,
                              validation_interval=100, plateau_patience=4,
                              checkpoint_interval=10**6)
        result = run_training(config, ds, tmp_path)
        lines = result.metrics_path.read_text(encoding="utf-8").splitlines()[1:]
        losses = np.array([float(l.split(",")[1]) for l in lines])
        sch = build_schedule(config.T, config.s)
        noise_floor = float(np.mean(sch.marginal_var[1:]))  # E[mv_t] under uniform t
        late = losses[-200:].mean()
        assert late < noise_floor * 1.15
        assert late < losses[:50].mean()

        ckpt = load_checkpoint(result.checkpoint_path)
        model = ckpt.ema_model()
        errs = []
        for i, seed in enumerate(range(40)):
            y = ds.y[i]
            x0, _ = ancestral_sample(sch, model.eps_fn(config.T), y, seed=seed)
            errs.append(float(np.abs(x0 - y)[0]))
        oracle_err = 0.33  # analytic-predictor chain at s=0.1, T=50
        assert np.mean(errs) < 1.4 * oracle_err

    def test_validation_weakly_monotone_in_windows(self, tmp_path):
        # Aggregated over 5k-step windows the validation loss never rises
        # (one violating window comparison tolerated for plateau wiggle).
        ds = gen_joint_gaussian(JointGaussianSpec(corr=0.8), dim=1, n=6000, seed=8)
        config = smoke_config(T=100, max_steps=15000, batch_size=64, hidden=(48, 48),
                              embed_dim=16, lr=5e-4, validation_interval=250,
                              plateau_patience=6, plateau_cooldown=3,
                              checkpoint_interval=10**6, seed=9)
        result = run_training(config, ds, tmp_path)
        lines = result.metrics_path.read_text(encoding="utf-8").splitlines()[1:]
        vals = [(int(l.split(",")[0]), float(l.split(",")[3]))
                for l in lines if l.split(",")[3] != ""]
        window = 5000
        by_window: dict[int, list[float]] = {}
        for step, v in vals:
            by_window.setdefault((step - 1) // window, []).append(v)
        means = [float(np.mean(by_window[k])) for k in sorted(by_window)]
        assert len(means) == 3
        violations = sum(1 for a, b in zip(means, means[1:]) if b > a * (1 + 1e-4))
        assert violations <= 1
        assert means[-1] <= means[0]


class TestDivergence:
    def test_nonfinite_loss_aborts_with_diagnostics(self, tmp_path):
        # Finite but enormous values overflow the squared loss on step 1.
        from bridgediff.data import PairedDataset
        from bridgediff.training import TrainingDiverged

        huge = PairedDataset(
            x0=np.full((50, 1), 1e200), y=np.full((50, 1), -1e200),
            generator="handmade", seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged, match="step 1"):
                run_training(smoke_config(max_steps=3), huge, tmp_path)


class TestTrainConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(seed=1, T=1)
        with pytest.raises(ValueError):
            TrainConfig(seed=1, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(seed=1, val_fraction=1.0)
        with pytest.raises(ValueError):
            TrainConfig(seed=1, lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(seed=1, max_steps=-1)

    @pytest.mark.parametrize("key,value", [
        ("seed", -1), ("ema_decay", 1.0), ("ema_decay", -0.1), ("plateau_factor", 0.0),
        ("plateau_factor", 1.0), ("min_lr", 2e-4), ("embed_dim", 7), ("hidden", ()),
        ("hidden", (16, 0)),
    ])
    def test_out_of_range_value_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must"):
            TrainConfig(**{"seed": 1, key: value})

    def test_seed_mandatory(self):
        with pytest.raises(TypeError):
            TrainConfig()
