import json
import struct

import numpy as np
import pytest

from bridgediff import cli
from bridgediff.checkpoint import MAGIC
from bridgediff.data import gen_two_moons_paired, save
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


class TestVerifyCommand:
    def test_clean_build_exits_zero(self, capsys, tmp_path):
        code = cli.main(["verify", "--report", str(tmp_path / "report.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 5
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

    @pytest.mark.filterwarnings("ignore:overflow")
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
        code = cli.main(["train", "--config", str(config), "--out", str(out_dir)])
        assert code == 1
        assert "step 1" in capsys.readouterr().err
        assert (out_dir / "train.incomplete").exists()


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
    ], ids=["relu", "no-model"])
    def test_bad_checkpoint_header_exits_two(self, tmp_path, moons_file, trained, capsys, edit):
        blob = trained.read_bytes()
        (n,) = struct.unpack("<I", blob[len(MAGIC) : len(MAGIC) + 4])
        start = len(MAGIC) + 4
        header = json.loads(blob[start : start + n])
        edit(header)
        new = json.dumps(header).encode("utf-8")
        trained.write_bytes(MAGIC + struct.pack("<I", len(new)) + new + blob[start + n :])
        code = cli.main([
            "sample", "--checkpoint", str(trained), "--data", str(moons_file),
            "--steps", "10", "--out", str(tmp_path / "x"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

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
        # degenerate slots print empty at t = T
        last = out[5].split(",")
        assert last[4] == "" and last[5] == ""
