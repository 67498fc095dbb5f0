import dataclasses
import errno
import json
import os
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from bridgediff import cli, fileio, metrics
from bridgediff.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from bridgediff.data import gen_two_moons_paired, save
from bridgediff.data import load as load_dataset
from bridgediff.metrics import diversity, energy_distance, moments
from bridgediff.sampling import SamplerPlan, accelerated_sample, make_grid
from bridgediff.schedule import build_schedule
from bridgediff.seeding import rng_for
from bridgediff.verify import FamilyResult


@pytest.fixture()
def moons_file(tmp_path):
    path = tmp_path / "moons.csv"
    save(gen_two_moons_paired(n=40, noise_sd=0.05, seed=77), path)
    return path


def write_config(tmp_path, data_path, **overrides):
    lines = {
        "seed": "123",
        "T": "60",
        "s": "1.0",
        "batch_size": "16",
        "max_steps": "30",
        "hidden": "12,12",
        "embed_dim": "8",
        "lr": "1e-3",
        "ema_update_interval": "2",
        "validation_interval": "10",
        "checkpoint_interval": "100",
        "dataset": str(data_path),
    }
    lines.update({k: str(v) for k, v in overrides.items()})
    body = "\n".join(f"{k} = {v}" for k, v in lines.items() if v is not None)
    path = tmp_path / "run.conf"
    path.write_text(body + "\n# trailing comment\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["sample", "--checkpoint", "ckpt.bin", "--data", "pairs.csv", "--out", "samples"],
])
def test_negative_seed_exits_two(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code = cli.main([*argv, "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: seed must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


class TestVerifyCommand:
    def test_clean_build_exits_zero(self, capsys, tmp_path):
        code = cli.main(["verify", "--report", str(tmp_path / "report.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 7
        assert "FAIL" not in out
        assert "all families passed" in out
        report = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "tolerance" in report and "worst" in report

    def test_failure_maps_to_exit_one(self, monkeypatch, capsys):
        broken = [FamilyResult("posterior-vs-grid", 1e-6, 0.5, 10, False)]
        monkeypatch.setattr(cli.verify_mod, "run_all", lambda seed: broken)
        code = cli.main(["verify"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


class TestTrainCommand:
    def test_smoke_train(self, tmp_path, moons_file, capsys):
        config = write_config(tmp_path, moons_file)
        out_dir = tmp_path / "run"
        code = cli.main(["train", "--config", str(config), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "ckpt_final.bin").exists()
        assert (out_dir / "metrics.csv").exists()
        assert not (out_dir / "train.incomplete").exists()

    def test_missing_dataset_names_key(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "nope.csv")
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "dataset" in err and "nope.csv" in err

    def test_unknown_key_rejected(self, tmp_path, moons_file, capsys):
        config = write_config(tmp_path, moons_file, typo_key="7")
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "typo_key" in capsys.readouterr().err

    def test_override_flag(self, tmp_path, moons_file):
        config = write_config(tmp_path, moons_file)
        out_dir = tmp_path / "run"
        code = cli.main([
            "train", "--config", str(config), "--set", "max_steps=5",
            "--out", str(out_dir),
        ])
        assert code == 0
        lines = (out_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6

    def test_rerun_byte_identical(self, tmp_path, moons_file):
        config = write_config(tmp_path, moons_file)
        cli.main(["train", "--config", str(config), "--out", str(tmp_path / "a")])
        cli.main(["train", "--config", str(config), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "ckpt_final.bin").read_bytes() == (
            tmp_path / "b" / "ckpt_final.bin"
        ).read_bytes()

    def test_incomplete_marker_survives_failure(self, tmp_path, monkeypatch, capsys):
        from bridgediff.data import PairedDataset, save as save_ds

        huge = PairedDataset(
            x0=np.full((30, 1), 1e200), y=np.full((30, 1), -1e200),
            generator="handmade", seed=0,
        )
        data_path = tmp_path / "huge.csv"
        save_ds(huge, data_path)
        config = write_config(tmp_path, data_path, max_steps=3)
        out_dir = tmp_path / "broken"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["train", "--config", str(config), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert "step 1" in err and err.count("\n") == 1
        assert (out_dir / "train.incomplete").exists()

    @pytest.mark.parametrize("key,value", [
        ("adam_beta1", "2"), ("adam_beta1", "-0.1"), ("adam_beta2", "1.0"),
        ("adam_eps", "0"), ("adam_eps", "inf"),
        ("ema_decay", "2"), ("plateau_factor", "1"), ("min_lr", "1"), ("embed_dim", "7"),
        ("hidden", ""), ("hidden", "0"), ("seed", "-1"),
        ("plateau_threshold", "nan"), ("plateau_threshold", "inf"), ("plateau_threshold", "-1"),
    ])
    def test_adam_hyperparameters_out_of_range_exit_two(self, tmp_path, moons_file, capsys, key, value):
        config = write_config(tmp_path, moons_file, **{key: value})
        out_dir = tmp_path / "run"
        code = cli.main(["train", "--config", str(config), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err and err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_overflowing_schedule_exits_two(self, tmp_path, moons_file, capsys):
        config = write_config(tmp_path, moons_file)
        out_dir = tmp_path / "run"
        code = cli.main(["train", "--config", str(config), "--set", "s=1e300",
                         "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: variance scale s=1e+300 makes the schedule at T=60 overflow\n"
        assert not out_dir.exists()

    def test_underflowing_schedule_exits_two(self, tmp_path, moons_file, capsys):
        config = write_config(tmp_path, moons_file)
        out_dir = tmp_path / "run"
        code = cli.main(["train", "--config", str(config), "--set", "s=1e-200",
                         "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: variance scale s=1e-200 makes the schedule at T=60 underflow\n"
        assert not out_dir.exists()

    def test_generator_key_without_generator_exits_two(self, tmp_path, moons_file, capsys):
        config = write_config(tmp_path, moons_file, gen_n="5")
        out_dir = tmp_path / "run"
        code = cli.main(["train", "--config", str(config), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert "gen_n" in err and err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()


def _edit_header(path, edit):
    blob = path.read_bytes()
    (n,) = struct.unpack("<I", blob[len(MAGIC) : len(MAGIC) + 4])
    start = len(MAGIC) + 4
    header = json.loads(blob[start : start + n])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(new)) + new + blob[start + n :])


@pytest.fixture()
def trained(tmp_path, moons_file):
    config = write_config(tmp_path, moons_file)
    out_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--out", str(out_dir)]) == 0
    return out_dir / "ckpt_final.bin"


class TestSampleCommand:
    def test_sample_writes_csv(self, tmp_path, moons_file, trained):
        out_dir = tmp_path / "samples"
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--n", "4", "--k", "2", "--steps", "15", "--seed", "9",
            "--out", str(out_dir),
        ])
        assert code == 0
        lines = (out_dir / "samples.csv").read_text(encoding="utf-8").splitlines()
        data_lines = [l for l in lines if not l.startswith("#")]
        assert data_lines[0] == "y_index,sample_index,dim_0,dim_1"
        assert len(data_lines) == 1 + 4 * 2

    def test_zero_rows_header_only(self, tmp_path, moons_file, trained):
        out_dir = tmp_path / "empty"
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--n", "0", "--steps", "10", "--out", str(out_dir),
        ])
        assert code == 0
        data_lines = [
            l for l in (out_dir / "samples.csv").read_text(encoding="utf-8").splitlines()
            if not l.startswith("#")
        ]
        assert data_lines == ["y_index,sample_index,dim_0,dim_1"]

    def test_default_steps_is_200(self):
        parser = cli.build_parser()
        args = parser.parse_args(["sample", "--checkpoint", "c", "--data", "d", "--out", "o"])
        assert args.steps == 200
        assert args.k == 1

    def test_steps_beyond_T_rejected(self, tmp_path, moons_file, trained, capsys):
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--steps", "61", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,line", [
        ("--eta", "1.5", "error: eta must lie in [0, 1], got 1.5\n"),
        ("--steps", "0", "error: steps must lie in 1..T=60, got 0\n"),
    ])
    def test_bad_sampler_setting_exits_two(self, tmp_path, moons_file, trained, capsys,
                                           flag, value, line):
        capsys.readouterr()
        out_dir = tmp_path / "x"
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--steps", "10", flag, value, "--out", str(out_dir),
        ])
        assert code == 2
        assert capsys.readouterr().err == line
        assert not out_dir.exists()

    def test_dim_mismatch_rejected(self, tmp_path, trained, capsys):
        from bridgediff.data import gen_binary_patterns

        other = tmp_path / "bits.csv"
        save_ds = gen_binary_patterns(n=5, side=2, flip_prob=0.0, seed=3)
        save(save_ds, other)
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(other),
            "--steps", "10", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda h: h["model"].update(activation="relu"),
        lambda h: h.pop("model"),
        lambda h: h.update(T=float("inf")),
    ], ids=["relu", "no-model", "infinite-T"])
    def test_bad_checkpoint_header_exits_two(self, tmp_path, moons_file, trained, capsys, edit):
        _edit_header(trained, edit)
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--steps", "10", "--out", str(tmp_path / "x"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_wrong_architecture_exits_two(self, tmp_path, moons_file, trained, capsys):
        _edit_header(trained, lambda h: h["model"].update(hidden=[12, 12, 12]))
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--steps", "10", "--out", str(tmp_path / "x"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "architecture" in err and err.count("\n") == 1

    def test_nan_ema_weights_exit_two(self, tmp_path, moons_file, trained, capsys):
        ckpt = load_checkpoint(trained)
        ckpt.model.split(ckpt.ema.shadow)[2][0, 0] = np.nan
        save_checkpoint(trained, ckpt)
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--steps", "10", "--out", str(tmp_path / "x"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "non-finite" in err and err.count("\n") == 1

    def test_nonfinite_state_names_chain_and_writes_no_samples(
        self, tmp_path, moons_file, trained, monkeypatch, capsys
    ):
        from bridgediff.nn import NoisePredictor

        forward = NoisePredictor.forward

        def nan_at_step_20(self, x, t, T):
            out = forward(self, x, t, T)
            if t == 20:
                out = out.copy()
                out[3] = np.nan  # chain 3 of the block: row 1, rep 1 at k=2
            return out

        monkeypatch.setattr(NoisePredictor, "forward", nan_at_step_20)
        out_dir = tmp_path / "nan"
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--n", "4", "--k", "2", "--steps", "15", "--out", str(out_dir),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert "t=20" in err and "(row 1, rep 1)" in err
        assert list(out_dir.iterdir()) == []

    def test_overflowing_prediction_exits_two(self, tmp_path, trained, capsys):
        from bridgediff.data import PairedDataset

        huge = tmp_path / "huge.csv"
        save(PairedDataset(x0=np.full((3, 2), 1e308), y=np.full((3, 2), -1.7e308),
                           generator="handmade", seed=0), huge)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([
                "sample", "--checkpoint", str(trained), "--data", str(huge),
                "--steps", "10", "--out", str(tmp_path / "x"),
            ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        # The checkpoint's weights are finite, so the inputs are to blame.
        assert "non-finite prediction from finite parameters (inputs out of range?)" in err
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "x" / "samples.csv").exists()

    def test_saturating_inputs_print_no_warnings(self, tmp_path, trained, capsys):
        # exp overflows in the sigmoid, which saturates as it should: the
        # samples are finite, so the run succeeds without numpy warnings.
        from bridgediff.data import PairedDataset

        huge = tmp_path / "huge.csv"
        save(PairedDataset(x0=np.ones((3, 2)), y=np.full((3, 2), -1e300),
                           generator="handmade", seed=0), huge)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([
                "sample", "--checkpoint", str(trained), "--data", str(huge),
                "--steps", "10", "--out", str(tmp_path / "x"),
            ])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert [str(w.message) for w in caught] == []

    def test_blocks_match_single_chains(self, tmp_path, moons_file, trained, monkeypatch):
        # 4 inputs x k=3 in blocks of 5: three blocks, the last one short.
        monkeypatch.setattr(cli, "SAMPLE_BLOCK", 5)
        out_dir = tmp_path / "blocks"
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--n", "4", "--k", "3", "--steps", "15", "--seed", "11", "--trajectories",
            "--out", str(out_dir),
        ])
        assert code == 0
        rows = [l.split(",") for l in (out_dir / "samples.csv").read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")][1:]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(i, k) for i in range(4) for k in range(3)]

        ckpt = load_checkpoint(trained)
        model = ckpt.ema_model()
        schedule = build_schedule(ckpt.T, ckpt.s)
        pairs = load_dataset(moons_file)
        for r in rows:
            row, rep = int(r[0]), int(r[1])
            value = np.array([float(v) for v in r[2:]])
            plan = SamplerPlan(grid=make_grid(ckpt.T, 15), eta=1.0,
                               seed=int(rng_for(11, "sample", row, rep).integers(2**62)))
            ref, _ = accelerated_sample(schedule, model.eps_fn(ckpt.T), pairs.y[row], plan)
            np.testing.assert_allclose(value, ref, rtol=0, atol=1e-12)
            last = (out_dir / f"trajectory_{row}_{rep}.csv").read_text(encoding="utf-8").splitlines()[-1]
            assert last.split(",") == ["0"] + r[2:]

    def test_rerun_byte_identical(self, tmp_path, moons_file, trained):
        for name in ("s1", "s2"):
            cli.main([
                "sample", "--checkpoint", str(trained), "--data", str(moons_file),
                "--n", "3", "--steps", "12", "--seed", "4",
                "--out", str(tmp_path / name),
            ])
        assert (tmp_path / "s1" / "samples.csv").read_bytes() == (
            tmp_path / "s2" / "samples.csv"
        ).read_bytes()

    def test_failed_run_leaves_no_trajectories(self, tmp_path, moons_file, trained, monkeypatch, capsys):
        # 8 chains in blocks of 4: the first block's trajectories are written,
        # then every prediction of the second block is NaN.
        from bridgediff.nn import NoisePredictor

        monkeypatch.setattr(cli, "SAMPLE_BLOCK", 4)
        written = []
        write = cli.write_trajectory_csv
        monkeypatch.setattr(cli, "write_trajectory_csv",
                            lambda traj, path: (written.append(path), write(traj, path)))
        forward = NoisePredictor.forward
        monkeypatch.setattr(NoisePredictor, "forward",
                            lambda self, x, t, T: forward(self, x, t, T) * (np.nan if written else 1.0))
        out_dir = tmp_path / "traj"
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--n", "4", "--k", "2", "--steps", "15", "--trajectories", "--out", str(out_dir),
        ])
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert len(written) == 4
        assert list(out_dir.iterdir()) == []

    def test_outputs_get_umask_permissions(self, tmp_path, moons_file, trained):
        # Files written through a temp name keep the mode a plain write gives.
        umask = os.umask(0o022)
        os.umask(umask)
        out_dir = tmp_path / "perm"
        assert cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--n", "1", "--k", "5", "--steps", "8", "--trajectories", "--out", str(out_dir),
        ]) == 0
        assert cli.main([
            "eval", "--samples", str(out_dir / "samples.csv"), "--reference", str(moons_file),
            "--out", str(out_dir / "report.csv"),
        ]) == 0
        modes = {p.name: p.stat().st_mode & 0o777 for p in out_dir.iterdir()}
        assert len(modes) == 1 + 5 + 1
        assert set(modes.values()) == {0o666 & ~umask}

    def test_trajectories_exported(self, tmp_path, moons_file, trained):
        out_dir = tmp_path / "traj"
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--n", "2", "--steps", "8", "--trajectories", "--out", str(out_dir),
        ])
        assert code == 0
        traj = (out_dir / "trajectory_0_0.csv").read_text(encoding="utf-8").splitlines()
        assert traj[0] == "t,dim_0,dim_1"
        assert traj[1].startswith("60,")  # starts at t = T with the conditioning input
        assert traj[-1].startswith("0,")


class TestEvalCommand:
    def test_eval_report(self, tmp_path, moons_file, trained):
        out_dir = tmp_path / "samples"
        cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--n", "6", "--k", "5", "--steps", "12", "--out", str(out_dir),
        ])
        report = tmp_path / "report.csv"
        code = cli.main([
            "eval", "--samples", str(out_dir / "samples.csv"),
            "--reference", str(moons_file), "--k", "5", "--out", str(report),
        ])
        assert code == 0
        lines = report.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "metric,value,n,seed"
        metrics = {l.split(",")[0]: l for l in lines[1:]}
        assert {"diversity", "energy_distance", "mean_0", "var_1"} <= set(metrics)
        assert float(metrics["energy_distance"].split(",")[1]) >= 0.0
        assert metrics["diversity"].split(",")[2] == "6"

    def test_identical_sets_zero_energy(self, tmp_path, moons_file):
        # hand-build a samples file that replays the reference data rows
        from bridgediff.data import load as load_ds

        ds = load_ds(moons_file)
        sample_file = tmp_path / "fake_samples.csv"
        with open(sample_file, "w", encoding="utf-8") as f:
            f.write("# format=samples-csv\n# version=1\n# seed=0\n")
            f.write("y_index,sample_index,dim_0,dim_1\n")
            for i, row in enumerate(ds.x0):
                f.write(f"{i},0,{float(row[0])!r},{float(row[1])!r}\n")
        report = tmp_path / "r.csv"
        code = cli.main([
            "eval", "--samples", str(sample_file), "--reference", str(moons_file),
            "--k", "1", "--out", str(report),
        ])
        assert code == 0
        ed_line = [l for l in report.read_text(encoding="utf-8").splitlines()
                   if l.startswith("energy_distance")][0]
        assert float(ed_line.split(",")[1]) == pytest.approx(0.0, abs=1e-12)

    def test_missing_file_names_path(self, tmp_path, moons_file, capsys):
        code = cli.main([
            "eval", "--samples", str(tmp_path / "ghost.csv"),
            "--reference", str(moons_file), "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_default_k_is_5(self):
        parser = cli.build_parser()
        args = parser.parse_args(["eval", "--samples", "s", "--reference", "r", "--out", "o"])
        assert args.k == 5

    def _fake_samples(self, tmp_path, moons_file):
        from bridgediff.data import load as load_ds

        sample_file = tmp_path / "fake_samples.csv"
        with open(sample_file, "w", encoding="utf-8") as f:
            f.write("# format=samples-csv\n# version=1\n# seed=0\n")
            f.write("y_index,sample_index,dim_0,dim_1\n")
            for i, row in enumerate(load_ds(moons_file).x0[:10]):
                f.write(f"{i},0,{float(row[0])!r},{float(row[1])!r}\n")
        return sample_file

    def test_out_of_memory_exits_two(self, tmp_path, moons_file, monkeypatch, capsys):
        def no_memory(a, b, b_self_sum=None):
            raise MemoryError("Unable to allocate 23.8 GiB")

        monkeypatch.setattr(cli, "energy_distance", no_memory)
        code = cli.main([
            "eval", "--samples", str(self._fake_samples(tmp_path, moons_file)),
            "--reference", str(moons_file), "--k", "1", "--out", str(tmp_path / "r.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: out of memory: Unable to allocate 23.8 GiB\n"

    def test_failed_write_keeps_earlier_report(self, tmp_path, moons_file, monkeypatch, capsys):
        report_dir = tmp_path / "reports"
        report_dir.mkdir()
        report = report_dir / "r.csv"
        report.write_bytes(b"earlier report\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail)
        code = cli.main([
            "eval", "--samples", str(self._fake_samples(tmp_path, moons_file)),
            "--reference", str(moons_file), "--k", "1", "--out", str(report),
        ])
        assert code == 2
        assert "disk full" in capsys.readouterr().err
        assert report.read_bytes() == b"earlier report\n"
        assert list(report_dir.iterdir()) == [report]


    def _eval_rows(self, tmp_path, moons_file, capsys, *row_sets, k=1, keep=False,
                   meta="# format=samples-csv\n# version=1\n# seed=0\n"):
        header = meta + "y_index,sample_index,dim_0,dim_1\n"
        sample_files = []
        for i, rows in enumerate(row_sets):
            sample_files.append(tmp_path / ("bad_samples.csv" if i == 0 else f"bad_samples_{i}.csv"))
            sample_files[-1].write_text(header + "".join(r + "\n" for r in rows), encoding="utf-8")
        report = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([
                "eval", "--samples", *map(str, sample_files), "--reference", str(moons_file),
                "--k", str(k), "--out", str(report),
            ])
        err = capsys.readouterr().err
        assert report.exists() == keep
        return code, err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_sample_value_exits_two(self, tmp_path, moons_file, capsys, value):
        rows = ["0,0,0.5,0.25", f"1,0,0.125,{value}", "2,0,1.0,-1.0"]
        code, err = self._eval_rows(tmp_path, moons_file, capsys, rows)
        assert code == 2
        assert err.count("\n") == 1 and "Warning" not in err
        assert "bad_samples.csv line 6" in err and "non-finite" in err

    def test_ragged_row_names_the_line(self, tmp_path, moons_file, capsys):
        rows = ["0,0,0.5,0.25", "1,0,0.5,0.25", "2,0,0.125"]
        code, err = self._eval_rows(tmp_path, moons_file, capsys, rows)
        assert code == 2
        assert err.count("\n") == 1 and "inhomogeneous" not in err
        assert "bad_samples.csv line 7" in err and "3 fields" in err


    @pytest.mark.parametrize("row_sets,message", [
        ((["0,abc,0.5,0.25", "0,1,0.5,0.25"],), "bad_samples.csv line 5: invalid literal"),
        ((["0,0,0.5,0.25", "0,0,0.5,0.25"],), "bad_samples.csv line 6: (y_index, sample_index) = (0, 0) appears twice"),
        ((["1,0,0.5,0.25", "1,7,0.5,0.25"],), "bad_samples.csv line 6: sample_index 7 outside 0..1"),
        ((["1,-1,0.5,0.25"],), "bad_samples.csv line 5: sample_index -1 outside 0..1"),
        ((["0,0,0.5,0.25", "0,1,0.5,0.25"], ["1,0,0.5,0.25", "0,1,0.5,0.25"]),
         "bad_samples_1.csv line 6: (y_index, sample_index) = (0, 1) appears twice"),
    ])
    def test_bad_sample_index_names_the_line(self, tmp_path, moons_file, capsys, row_sets, message):
        code, err = self._eval_rows(tmp_path, moons_file, capsys, *row_sets, k=2)
        assert code == 2
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("meta,message", [
        ("# format=samples-csv\n# version=2\n",
         "error: unsupported samples-csv version '2' in {}\n"),
        ("# format=paired-csv\n# version=1\n", "error: not a samples-csv file: {}\n"),
        ("# format=samples-csv\n# version=1\n# seed\n",
         "error: malformed metadata line in {}: '# seed'\n"),
    ], ids=["version", "format", "no-equals"])
    def test_bad_metadata_names_the_file(self, tmp_path, moons_file, capsys, meta, message):
        code, err = self._eval_rows(tmp_path, moons_file, capsys, ["0,0,0.5,0.25"], meta=meta)
        assert code == 2
        assert err == message.format(tmp_path / "bad_samples.csv")

    @pytest.mark.parametrize("meta,message", [
        ("# dim=3\n", "metadata dim='3' does not match value columns (2)"),
        ("# k=5\n", "metadata k='5' does not match --k (1)"),
        ("# k=1\n# dim=2.0\n", "metadata dim='2.0' does not match value columns (2)"),
    ], ids=["dim", "k", "dim-spelling"])
    def test_metadata_against_rows_and_flags(self, tmp_path, moons_file, capsys, meta, message):
        code, err = self._eval_rows(tmp_path, moons_file, capsys, ["0,0,0.5,0.25"],
                                    meta="# format=samples-csv\n# version=1\n" + meta)
        assert code == 2
        assert err == f"error: {tmp_path / 'bad_samples.csv'}: {message}\n"

    SHARD_META = {"seed": "1", "steps": "200", "eta": "1.0", "k": "1", "n": "1", "dim": "2"}

    def _eval_shards(self, tmp_path, moons_file, capsys, *metas, widths=None, empty=()):
        # One input per shard, each shard with its own metadata lines,
        # widths[i] value columns (default 2) and no rows if i is in empty.
        files = []
        for i, meta in enumerate(metas):
            width = 2 if widths is None else widths[i]
            row = ",".join([str(i), "0", *(str(0.5 ** j) for j in range(1, width + 1))])
            lines = ["# format=samples-csv", "# version=1",
                     *(f"# {k}={v}" for k, v in meta.items()),
                     ",".join(["y_index", "sample_index", *(f"dim_{j}" for j in range(width))]),
                     *([] if i in empty else [row])]
            files.append(tmp_path / f"s{i}.csv")
            files[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = tmp_path / "r.csv"
        code = cli.main(["eval", "--samples", *map(str, files), "--reference", str(moons_file),
                         "--k", "1", "--out", str(report)])
        return code, capsys.readouterr().err, report, files

    @pytest.mark.parametrize("key,other", [
        ("seed", "2"), ("steps", "50"), ("eta", "0.0"), ("k", "5"), ("dim", "3"), ("eta", None),
    ], ids=["seed", "steps", "eta", "k", "dim", "missing"])
    def test_shards_with_different_metadata_exit_two(self, tmp_path, moons_file, capsys, key, other):
        changed = {k: v for k, v in self.SHARD_META.items() if k != key or other is not None}
        if other is not None:
            changed[key] = other
        code, err, report, files = self._eval_shards(
            tmp_path, moons_file, capsys, self.SHARD_META, self.SHARD_META, changed)
        assert code == 2
        assert err == (f"error: samples files disagree on {key}: {files[0]} has "
                       f"{self.SHARD_META[key]!r}, {files[2]} has {other!r}\n")
        assert not report.exists()

    @pytest.mark.parametrize("empty", [(), (1,)], ids=["rows", "header_only"])
    def test_shards_with_different_widths_exit_two(self, tmp_path, moons_file, capsys, empty):
        # Without dim metadata, only the column counts can tell the shards
        # apart; an empty shard must agree too, not be dropped.
        meta = {k: v for k, v in self.SHARD_META.items() if k != "dim"}
        code, err, report, files = self._eval_shards(
            tmp_path, moons_file, capsys, meta, meta, widths=(2, 3), empty=empty)
        assert code == 2
        assert err == (f"error: samples files disagree on value columns: {files[0]} has 2, "
                       f"{files[1]} has 3\n")
        assert not report.exists()

    def test_shards_may_differ_in_n(self, tmp_path, moons_file, capsys):
        code, err, report, _ = self._eval_shards(
            tmp_path, moons_file, capsys, self.SHARD_META, {**self.SHARD_META, "n": "7"})
        assert (code, err) == (0, "")
        rows = report.read_text(encoding="utf-8").splitlines()[1:3]
        assert [line.split(",")[2:] for line in rows] == [["2", "1"], ["2", "1"]]

    def test_inputs_interleaved_across_files(self, tmp_path, moons_file, capsys):
        # Each input's k = 3 rows lie out of order and split over two files.
        # The report equals one built from each input's rows in file order,
        # inputs ascending.
        rng = rng_for(5, "interleave")
        pairs = [(int(y), rep) for y, rep in rng.permutation([(y, r) for y in range(4) for r in range(3)])]
        values = rng.normal(size=(len(pairs), 2))
        rows = [f"{y},{rep},{a!r},{b!r}" for (y, rep), (a, b) in zip(pairs, values.tolist())]
        code, _ = self._eval_rows(tmp_path, moons_file, capsys, rows[:5], rows[5:], k=3, keep=True)
        assert code == 0
        y_idx = np.array([y for y, _ in pairs])
        groups = [values[y_idx == uid] for uid in np.unique(y_idx)]
        mom = moments(values)
        expected = ["metric,value,n,seed", f"diversity,{diversity(groups, k=3)!r},4,0",
                    f"energy_distance,{energy_distance(values, load_dataset(moons_file).x0)!r},12,0"]
        for i in range(2):
            expected += [f"mean_{i},{float(mom.mean[i])!r},12,0", f"var_{i},{float(mom.var[i])!r},12,0"]
        assert (tmp_path / "r.csv").read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    def test_wrong_group_size_names_the_first_input(self, tmp_path, moons_file, capsys):
        rows = ["2,0,0.5,0.25", "0,0,0.5,0.25", "1,0,0.5,0.25", "2,1,0.5,0.25", "1,1,0.5,0.25"]
        code, err = self._eval_rows(tmp_path, moons_file, capsys, rows, k=2)
        assert code == 2
        assert err == "error: conditioning input 0 has 1 samples, expected k=2\n"

    def test_k_below_one_exits_two(self, tmp_path, moons_file, capsys):
        code, err = self._eval_rows(tmp_path, moons_file, capsys, ["0,0,0.5,0.25"], k=0)
        assert code == 2
        assert err == "error: k must be >= 1, got 0\n"


class TestReferenceSelfSum:
    """``eval`` keeps the reference's self term in ``<reference>.selfdist``
    and reuses it only when it is exactly what a fresh computation would
    write."""

    def _inputs(self, tmp_path, ref_dir=None):
        ref_dir = ref_dir or tmp_path
        ref_dir.mkdir(exist_ok=True)
        reference = ref_dir / "ref.csv"
        save(gen_two_moons_paired(n=600, noise_sd=0.05, seed=71), reference)
        values = gen_two_moons_paired(n=300, noise_sd=0.1, seed=72).x0
        samples = tmp_path / "samples.csv"
        lines = ["# format=samples-csv", "# version=1", "# seed=3", "y_index,sample_index,dim_0,dim_1"]
        lines += [f"{i},0,{a!r},{b!r}" for i, (a, b) in enumerate(values.tolist())]
        samples.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return samples, reference, values

    def _eval(self, samples, reference, out):
        code = cli.main(["eval", "--samples", str(samples), "--reference", str(reference),
                         "--k", "1", "--out", str(out)])
        assert code == 0
        return out.read_bytes()

    @staticmethod
    def _selfdist(reference):
        return reference.with_name(reference.name + ".selfdist")

    def _count_pair_sums(self, monkeypatch):
        calls = []
        pair_sum = metrics._pair_distance_sum

        def counted(a, b):
            calls.append((a.shape, b.shape))
            return pair_sum(a, b)

        monkeypatch.setattr(metrics, "_pair_distance_sum", counted)
        return calls

    def test_cold_warm_and_no_file_reports_match(self, tmp_path, monkeypatch):
        samples, reference, values = self._inputs(tmp_path)
        calls = self._count_pair_sums(monkeypatch)
        cold = self._eval(samples, reference, tmp_path / "cold.csv")
        assert len(calls) == 3
        text = self._selfdist(reference).read_text(encoding="ascii")
        x0 = load_dataset(reference).x0
        assert text == (f"bridgediff-selfdist 1\n{metrics.self_distance_key(x0)}\n"
                        f"{metrics.self_distance_sum(x0).hex()}\n")
        calls.clear()
        warm = self._eval(samples, reference, tmp_path / "warm.csv")
        assert len(calls) == 2 and (600, 2) not in [shape for shape, _ in calls]
        assert self._selfdist(reference).read_text(encoding="ascii") == text
        self._selfdist(reference).unlink()
        again = self._eval(samples, reference, tmp_path / "again.csv")
        assert cold == warm == again
        ed = [line for line in cold.decode().splitlines() if line.startswith("energy_distance,")]
        assert ed == [f"energy_distance,{energy_distance(values, x0)!r},300,3"]

    def test_edited_reference_rewrites_the_file(self, tmp_path):
        samples, reference, values = self._inputs(tmp_path)
        self._eval(samples, reference, tmp_path / "r1.csv")
        first = self._selfdist(reference).read_text(encoding="ascii")
        ds = load_dataset(reference)
        x0 = ds.x0.copy()
        x0[17, 1] += 0.25  # same size, one value changed
        save(dataclasses.replace(ds, x0=x0), reference)
        report = self._eval(samples, reference, tmp_path / "r2.csv")
        second = self._selfdist(reference).read_text(encoding="ascii")
        assert second != first
        assert second.splitlines()[1] == metrics.self_distance_key(x0)
        assert float.fromhex(second.splitlines()[2]) == metrics.self_distance_sum(x0)
        assert f"energy_distance,{energy_distance(values, x0)!r}," in report.decode()

    @pytest.mark.parametrize("edit", [
        lambda text, head: "",
        lambda text, head: text[: len(text) // 2],
        lambda text, head: text[:-1],
        lambda text, head: text.replace("bridgediff-selfdist 1", "bridgediff-selfdist 2"),
        lambda text, head: head + "1.5e3\n",  # float.fromhex reads it as 0x1.5e3
        lambda text, head: head + "0x1.8p+3 \n",
        lambda text, head: head + "nan\n",
        lambda text, head: head + "inf\n",
        lambda text, head: head + "-0x1.8p+3\n",
        lambda text, head: head + "-0x0.0p+0\n",
        lambda text, head: head + "0x1p+99999\n",
        lambda text, head: text + "extra line\n",
        lambda text, head: text + "\n",
        lambda text, head: text.replace("n=600", "n=601"),
        lambda text, head: "\xe9" + text,
    ], ids=["empty", "truncated", "no-final-newline", "format", "decimal", "whitespace",
            "nan", "inf", "negative", "negative-zero", "overflow", "extra-line",
            "blank-line", "other-key", "non-ascii"])
    def test_unusable_file_is_recomputed_and_rewritten(self, tmp_path, monkeypatch, edit):
        samples, reference, _ = self._inputs(tmp_path)
        expected = self._eval(samples, reference, tmp_path / "expected.csv")
        path = self._selfdist(reference)
        good = path.read_text(encoding="ascii")
        path.write_bytes(edit(good, "".join(good.splitlines(True)[:2])).encode("latin-1"))
        calls = self._count_pair_sums(monkeypatch)
        assert self._eval(samples, reference, tmp_path / "r.csv") == expected
        assert len(calls) == 3
        assert path.read_text(encoding="ascii") == good

    def test_directory_in_its_place(self, tmp_path):
        samples, reference, _ = self._inputs(tmp_path)
        expected = self._eval(samples, reference, tmp_path / "expected.csv")
        self._selfdist(reference).unlink()
        self._selfdist(reference).mkdir()
        assert self._eval(samples, reference, tmp_path / "r.csv") == expected
        assert self._selfdist(reference).is_dir()
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_owner_decides_whether_the_file_is_believed(self, tmp_path, monkeypatch):
        if os.geteuid() != 0:
            pytest.skip("giving a file another owner needs root")
        samples, reference, _ = self._inputs(tmp_path)
        expected = self._eval(samples, reference, tmp_path / "expected.csv")
        path = self._selfdist(reference)
        good = path.read_text(encoding="ascii")
        head = "".join(good.splitlines(True)[:2])
        # Planted by another user: the right key, a well-formed wrong sum.
        path.write_text(head + (1.5).hex() + "\n", encoding="ascii")
        os.chown(path, 4242, -1)
        calls = self._count_pair_sums(monkeypatch)
        assert self._eval(samples, reference, tmp_path / "r1.csv") == expected
        assert len(calls) == 3
        assert path.read_text(encoding="ascii") == good
        assert path.stat().st_uid == os.geteuid()
        # A file owned by the reference's owner is believed.
        os.chown(reference, 4242, -1)
        os.chown(path, 4242, -1)
        calls.clear()
        assert self._eval(samples, reference, tmp_path / "r2.csv") == expected
        assert len(calls) == 2

    def test_read_only_directory(self, tmp_path, monkeypatch):
        samples, reference, _ = self._inputs(tmp_path, tmp_path / "ro")
        expected = self._eval(samples, reference, tmp_path / "expected.csv")
        self._selfdist(reference).unlink()
        ro = reference.parent
        ro.chmod(0o555)
        try:
            if os.access(ro, os.W_OK):
                # Mode bits do not stop a privileged user: refuse the way the
                # kernel refuses everyone else.
                def refuse(file, mode="r", *args, **kwargs):
                    if Path(file).parent == ro and ("x" in mode or "w" in mode):
                        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
                    return open(file, mode, *args, **kwargs)

                monkeypatch.setattr(fileio, "open", refuse, raising=False)
            assert self._eval(samples, reference, tmp_path / "r.csv") == expected
            assert list(ro.iterdir()) == [reference]
        finally:
            ro.chmod(0o755)

    def test_out_of_memory_in_self_term_exits_two(self, tmp_path, monkeypatch, capsys):
        samples, reference, _ = self._inputs(tmp_path)
        pair_sum = metrics._pair_distance_sum

        def no_memory(a, b):
            if a is b and a.shape[0] == 600:
                raise MemoryError("Unable to allocate 1.00 MiB")
            return pair_sum(a, b)

        monkeypatch.setattr(metrics, "_pair_distance_sum", no_memory)
        out = tmp_path / "r.csv"
        code = cli.main(["eval", "--samples", str(samples), "--reference", str(reference),
                         "--k", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 1.00 MiB\n"
        assert sorted(tmp_path.iterdir()) == [reference, samples]


class TestAtomicReports:
    """``verify --report`` and ``info --out`` replace their file only once
    it is complete."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--report"],
        ["info", "--T", "4", "--s", "1.0", "--out"],
    ])
    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch, capsys, argv):
        out_dir = tmp_path / "reports"
        out_dir.mkdir()
        out = out_dir / "report.txt"
        out.write_bytes(b"earlier report\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail)
        code = cli.main([*argv, str(out)])
        assert code == 2
        assert "disk full" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier report\n"
        assert list(out_dir.iterdir()) == [out]

    def test_info_out_writes_the_printed_table(self, tmp_path, capsys):
        cli.main(["info", "--T", "4", "--s", "1.0"])
        table = capsys.readouterr().out
        out = tmp_path / "table.csv"
        assert cli.main(["info", "--T", "4", "--s", "1.0", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == table


class TestInfoCommand:
    def test_schedule_table(self, capsys):
        code = cli.main(["info", "--T", "4", "--s", "1.0"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0].startswith("t,mix,marginal_var")
        assert len(out) == 6
        row2 = out[3].split(",")
        assert float(row2[1]) == 0.5
        assert float(row2[2]) == 0.5
        # Degenerate (NaN) slots print empty: fields 3-7 at t = 0, and
        # fields 4-7 at t = T, whose transition variance prints.
        first = out[1].split(",")
        assert first[:3] == ["0", "0.0", "0.0"] and first[3:] == [""] * 5
        last = out[5].split(",")
        assert last[:4] == ["4", "1.0", "0.0", "0.0"] and last[4:] == [""] * 4
        assert all(field for row in out[2:5] for field in row.split(","))

    def test_overflowing_schedule_exits_two(self, capsys):
        code = cli.main(["info", "--T", "4", "--s", "1e300"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: variance scale s=1e+300 makes the schedule at T=4 overflow\n"

    def test_underflowing_schedule_exits_two(self, capsys):
        code = cli.main(["info", "--T", "4", "--s", "1e-200"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: variance scale s=1e-200 makes the schedule at T=4 underflow\n"
