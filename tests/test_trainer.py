import dataclasses
import re
import sys
import warnings

import numpy as np
import pytest

from bridgediff import training
from bridgediff.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from bridgediff.data import gen_binary_patterns, gen_joint_gaussian
from bridgediff.nn import NoisePredictor
from bridgediff.optim import AdamState, ema_update, plateau_lr_step
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


def drawn_batch(dataset, schedule, step, batch=32, weighted=False, seed=100):
    """One step's rows, steps, noise, noised states, targets and weights."""
    rows, t_idx, eps = training._draw(rng_for(seed, "step", step), schedule, dataset.n,
                                      (batch, dataset.dim), weighted)
    x_t, target, weights = training._noised(schedule, dataset.x0[rows], dataset.y[rows],
                                             t_idx, eps, weighted)
    return t_idx, x_t, target, weights


class TestTrainStep:
    def test_deterministic_loss_trace(self, gauss_dataset):
        def run():
            sch = build_schedule(50, 1.0)
            model = NoisePredictor.create(1, (16, 16), 8, rng_for(100, "init"))
            adam = AdamState.for_params(model.flat)
            losses = []
            for step in range(1, 11):
                t_idx, x_t, target, weights = drawn_batch(gauss_dataset, sch, step)
                losses.append(train_step(model, sch.T, x_t, t_idx, target, weights, adam, 1e-3))
            return losses, model.flat.tobytes()

        assert run() == run()

    def test_weighted_mode_avoids_final_step(self, gauss_dataset):
        sch = build_schedule(5, 1.0)
        model = NoisePredictor.create(1, (8,), 8, rng_for(1, "init"))
        adam = AdamState.for_params(model.flat)
        t_idx, x_t, target, weights = drawn_batch(gauss_dataset, sch, 1, batch=4000,
                                                  weighted=True)
        assert set(t_idx.tolist()) == {1, 2, 3, 4}
        np.testing.assert_array_equal(weights[:, 0], sch.coef_noise[t_idx])
        assert np.isfinite(train_step(model, sch.T, x_t, t_idx, target, weights, adam, 1e-3))
        plain, _, _, _ = drawn_batch(gauss_dataset, sch, 1, batch=4000)
        assert plain.max() == sch.T

    @staticmethod
    def _step_on(x_t, target):
        model = NoisePredictor.create(1, (8,), 8, rng_for(1, "init"))
        adam = AdamState.for_params(model.flat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="batch arrays"):
                train_step(model, 50, x_t, np.ones(len(x_t), dtype=int), target, None, adam,
                           1e-3)

    def test_empty_batch_rejected(self):
        self._step_on(np.zeros((0, 1)), np.zeros((0, 1)))

    @pytest.mark.parametrize("x_t,target", [
        (np.zeros((3, 1)), np.zeros((3, 2))),
        (np.zeros(3), np.zeros(3)),
    ], ids=["widths", "rank"])
    def test_mismatched_batch_rejected(self, x_t, target):
        self._step_on(x_t, target)

    def test_run_training_updates_through_train_step(self, gauss_dataset, tmp_path,
                                                     monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[2].shape)
            return train_step(*args)

        monkeypatch.setattr(training, "train_step", counted)
        run_training(smoke_config(max_steps=13), gauss_dataset, tmp_path)
        assert calls == [(32, 1)] * 13


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


def reference_training(config, dataset, out_dir, resume_from=None):
    """The training loop one step at a time, each step's ``_draw``,
    ``_noised`` and ``train_step`` in turn: the bytes the chunked loop in
    ``run_training`` must write. The initial state comes from a zero-step
    run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if resume_from is None:
        init = run_training(dataclasses.replace(config, max_steps=0), dataset,
                            out_dir.parent / f"{out_dir.name}_init")
        resume_from = init.checkpoint_path
    ckpt = load_checkpoint(resume_from)
    model, ema, adam, plateau = ckpt.model, ckpt.ema, ckpt.adam, ckpt.plateau
    sch = build_schedule(config.T, config.s)
    n_val = max(1, int(round(config.val_fraction * dataset.n)))
    perm = rng_for(config.seed, "split").permutation(dataset.n)
    x0_train, y_train = dataset.x0[perm[n_val:]], dataset.y[perm[n_val:]]
    validator = training._Validator(sch, dataset.x0[perm[:n_val]], dataset.y[perm[:n_val]],
                                    config.seed)

    def checkpoint_at(step):
        return Checkpoint(T=config.T, s=config.s, step=step, model=model, ema=ema, adam=adam,
                          plateau=plateau)

    lines = ["step,loss,lr,val_loss"]
    for step in range(ckpt.step + 1, config.max_steps + 1):
        rows, t_idx, eps = training._draw(rng_for(config.seed, "step", step), sch,
                                          x0_train.shape[0], (config.batch_size, dataset.dim),
                                          config.weighted_loss)
        x_t, target, weights = training._noised(sch, x0_train[rows], y_train[rows], t_idx, eps,
                                                config.weighted_loss)
        loss = train_step(model, config.T, x_t, t_idx, target, weights, adam, plateau.current_lr)
        ema_update(ema, model.flat, step)
        val = ""
        if step % config.validation_interval == 0 or step == config.max_steps:
            v = validator.loss(model)
            plateau_lr_step(plateau, v)
            val = repr(v)
        lines.append(f"{step},{loss!r},{plateau.current_lr!r},{val}")
        if step % config.checkpoint_interval == 0 and step != config.max_steps:
            save_checkpoint(out_dir / f"ckpt_{step:08d}.bin", checkpoint_at(step))
    save_checkpoint(out_dir / "ckpt_final.bin", checkpoint_at(config.max_steps))
    (out_dir / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def files_of(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestChunkedLoop:
    """``run_training`` prepares the batches of several steps at once; every
    file it writes must match the one-step-at-a-time reference byte for
    byte."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("chunk", [1, 8, 64])
    def test_matches_reference_loop(self, gauss_dataset, tmp_path, monkeypatch, weighted, chunk):
        # 45 steps: not a multiple of the chunk; validation every 5 and a
        # checkpoint every 7 steps fall inside chunks.
        monkeypatch.setattr(training, "_CHUNK_STEPS", chunk)
        config = smoke_config(max_steps=45, validation_interval=5, checkpoint_interval=7,
                              weighted_loss=weighted)
        run_training(config, gauss_dataset, tmp_path / "chunked")
        reference_training(config, gauss_dataset, tmp_path / "reference")
        assert files_of(tmp_path / "chunked") == files_of(tmp_path / "reference")

    @pytest.mark.parametrize("weighted", [False, True])
    def test_resume_from_mid_chunk(self, gauss_dataset, tmp_path, monkeypatch, weighted):
        # Steps 1..8 are one chunk of the first run; the resumed run's
        # chunks start at step 8.
        monkeypatch.setattr(training, "_CHUNK_STEPS", 8)
        config = smoke_config(max_steps=30, validation_interval=4, checkpoint_interval=7,
                              weighted_loss=weighted)
        run_training(config, gauss_dataset, tmp_path / "first")
        start = tmp_path / "first" / "ckpt_00000007.bin"
        run_training(config, gauss_dataset, tmp_path / "resumed", resume_from=start)
        reference_training(config, gauss_dataset, tmp_path / "reference", resume_from=start)
        assert files_of(tmp_path / "resumed") == files_of(tmp_path / "reference")
        full = files_of(tmp_path / "first")
        for name, content in files_of(tmp_path / "resumed").items():
            if name != "metrics.csv":
                assert content == full[name], name

    @pytest.mark.parametrize("side,batch,steps_per_chunk", [
        (8, 600, 1),   # one step's arrays pass the byte budget alone
        (1, 2000, 8),  # the budget, not _CHUNK_STEPS, sets the chunk
        (1, 20, 64),   # small steps fill a chunk of _CHUNK_STEPS
    ])
    def test_chunk_arrays_bounded(self, gauss_dataset, tmp_path, monkeypatch, side, batch,
                                  steps_per_chunk):
        ds = (gen_binary_patterns(n=2000, side=side, flip_prob=0.1, seed=73) if side > 1
              else gauss_dataset)
        config = smoke_config(max_steps=70, batch_size=batch, validation_interval=30,
                              checkpoint_interval=40)
        noised, rows = training._noised, []

        def record(schedule, x0, *args):
            # The chunks' calls, not the validator's one over its fixed set.
            if sys._getframe(1).f_code.co_name == "run_training":
                rows.append(x0.shape[0])
            return noised(schedule, x0, *args)

        monkeypatch.setattr(training, "_noised", record)
        run_training(config, ds, tmp_path / "chunked")
        monkeypatch.undo()
        assert rows[0] == steps_per_chunk * batch and sum(rows) == 70 * batch
        # rows, steps and loss weights, and noise, pairs, states and targets
        assert steps_per_chunk == 1 or rows[0] * 8 * (3 + 5 * ds.dim) <= training._CHUNK_BYTES
        reference_training(config, ds, tmp_path / "reference")
        assert files_of(tmp_path / "chunked") == files_of(tmp_path / "reference")


class TestResumeInPlace:
    """A resume into the directory of an earlier run keeps that run's
    metrics rows up to the checkpoint and replaces the later ones."""

    def test_same_directory_resume_reproduces_uninterrupted_run(self, gauss_dataset, tmp_path):
        full = run_training(smoke_config(), gauss_dataset, tmp_path / "full")
        # From the end of a shorter run, and from a checkpoint with later
        # rows already written.
        half = run_training(smoke_config(max_steps=20), gauss_dataset, tmp_path / "half")
        run_training(smoke_config(), gauss_dataset, tmp_path / "half",
                     resume_from=half.checkpoint_path)
        again = run_training(smoke_config(), gauss_dataset, tmp_path / "full",
                             resume_from=tmp_path / "full" / "ckpt_00000020.bin")
        expected = full.metrics_path.read_bytes()
        assert (tmp_path / "half" / "metrics.csv").read_bytes() == expected
        assert again.metrics_path.read_bytes() == expected
        # The 20-step run wrote its step-20 state as ckpt_final.bin only.
        full_files = files_of(tmp_path / "full")
        del full_files["ckpt_00000020.bin"]
        assert files_of(tmp_path / "half") == full_files

    def test_checkpoint_past_max_steps_rejected(self, gauss_dataset, tmp_path):
        half = run_training(smoke_config(max_steps=20), gauss_dataset, tmp_path)
        before = files_of(tmp_path)
        with pytest.raises(ValueError, match="step-20 checkpoint with max_steps=10"):
            run_training(smoke_config(max_steps=10), gauss_dataset, tmp_path,
                         resume_from=half.checkpoint_path)
        assert files_of(tmp_path) == before

    @pytest.mark.parametrize("overrides,message", [
        (dict(hidden=(64,)), "checkpoint hidden=(16, 16) does not match the run's (64,)"),
        (dict(embed_dim=32), "checkpoint embed_dim=8 does not match the run's 32"),
        (dict(normalize_inputs=False),
         "checkpoint normalize_inputs=True does not match the run's False"),
        (dict(hidden=(64,), embed_dim=32, normalize_inputs=False), "checkpoint hidden="),
    ], ids=["hidden", "embed_dim", "normalize_inputs", "all"])
    def test_architecture_mismatch_rejected(self, gauss_dataset, tmp_path, overrides, message):
        half = run_training(smoke_config(max_steps=20), gauss_dataset, tmp_path)
        before = files_of(tmp_path)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_training(smoke_config(**overrides), gauss_dataset, tmp_path,
                         resume_from=half.checkpoint_path)
        assert files_of(tmp_path) == before

    def test_resume_at_max_steps_rewrites_the_same_files(self, gauss_dataset, tmp_path):
        half = run_training(smoke_config(max_steps=20), gauss_dataset, tmp_path)
        before = files_of(tmp_path)
        run_training(smoke_config(max_steps=20), gauss_dataset, tmp_path,
                     resume_from=half.checkpoint_path)
        assert files_of(tmp_path) == before

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:15],                     # ends before the checkpoint
        lambda lines: lines[:5] + lines[6:],          # a row missing
        lambda lines: ["step,loss,lr\n"] + lines[1:],  # another header
        lambda lines: lines[:20] + [lines[20].rstrip("\n")],  # row 20 cut short
        lambda lines: [],
    ])
    def test_history_not_matching_the_checkpoint_rejected(self, gauss_dataset, tmp_path, edit):
        half = run_training(smoke_config(max_steps=20), gauss_dataset, tmp_path)
        lines = half.metrics_path.read_text(encoding="utf-8").splitlines(keepends=True)
        half.metrics_path.write_text("".join(edit(lines)), encoding="utf-8")
        before = files_of(tmp_path)
        with pytest.raises(ValueError, match=f"^cannot resume into {half.metrics_path}: "):
            run_training(smoke_config(), gauss_dataset, tmp_path, resume_from=half.checkpoint_path)
        assert files_of(tmp_path) == before


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
        ("hidden", (16, 0)), ("T", 1), ("s", 0.0), ("adam_beta1", 1.0), ("adam_beta2", -0.1),
        ("adam_eps", 0.0), ("ema_update_interval", 0), ("plateau_threshold", -1.0),
        ("embed_dim", 0), ("plateau_patience", -5), ("plateau_patience", 0),
        ("plateau_cooldown", -3), ("ema_start_step", -7),
    ])
    def test_out_of_range_value_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must"):
            TrainConfig(**{"seed": 1, key: value})

    @pytest.mark.parametrize("key", ["ema_update_interval", "ema_start_step",
                                     "plateau_patience", "plateau_cooldown"])
    def test_integer_setting_is_not_truncated(self, key):
        with pytest.raises(TypeError, match=f"^{key} must be an integer, got 2.5$"):
            TrainConfig(**{"seed": 1, key: 2.5})

    def test_overflowing_schedule_rejected(self):
        with pytest.raises(ValueError, match=r"s=1e\+300 makes the schedule at T=50 overflow"):
            TrainConfig(seed=1, T=50, s=1e300)

    def test_seed_mandatory(self):
        with pytest.raises(TypeError):
            TrainConfig()
