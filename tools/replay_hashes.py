"""Replay the byte-identity recipe and print one sha256 per artefact.

Run from anywhere; the package is imported from the ``src/`` of the
checkout that holds this script:

    python3 tools/replay_hashes.py > hashes.txt
    python3 tools/replay_hashes.py --check

In a temporary directory it

- saves the acceptance two-moons pairs (40,000 rows, noise 0.05, seed
  880) as ``pairs.csv``;
- trains ``w0`` (plain loss) and ``w1`` (weighted loss) for 500 steps at
  the acceptance configuration, seed 900, validating every 500 steps and
  writing a checkpoint every 100;
- runs ``bridgediff sample --n 8 --k 5 --steps 200 --seed 7`` on
  ``w0/ckpt_final.bin``;
- runs ``--n 200`` of the same command on ``w1/ckpt_final.bin`` at eta 1,
  0.5 and 0, each with and without ``--trajectories`` (which writes
  ``trajectories.csv`` beside ``samples.csv``), and stops unless, for each
  eta, the two runs' ``samples.csv`` are the same bytes and every chain's
  t = 0 row in ``trajectories.csv`` is that chain's ``samples.csv`` row;
- runs ``bridgediff eval --k 5`` on the eta 1 samples against ``pairs.csv``
  and writes the report to ``eval_w1_n200_eta1.csv``, which also writes the
  reference's self term to ``pairs.csv.selfdist``; then runs it again, now
  reading that file, into ``eval_w1_n200_eta1_warm.csv``; then scores the
  same samples split at an input boundary into the two shard files of
  ``w1_n200_eta1_shards/`` into ``eval_w1_n200_eta1_shards.csv``; and stops
  unless all three reports are the same bytes;
- runs ``--n 500`` of the sample command on ``w1/ckpt_final.bin`` (2,500
  chains, which the CLI runs 256 at a time);
- copies ``w0`` to ``w0_resume`` and resumes that copy in place from its
  ``ckpt_00000200.bin``, so every ``w0_resume`` file should hash as the
  ``w0`` file of the same name;
- loads ``w0/ckpt_final.bin`` and saves it again as
  ``w0/ckpt_final_resaved.bin``, which should hash as the file it was
  loaded from;
- trains ``w0_noscale`` for 0 steps with ``normalize_inputs`` off, which
  writes a checkpoint without a state scale, and re-saves that checkpoint
  the same way;
- writes ``checkpoint_errors.txt``, one line per edit of
  ``w0/ckpt_final.bin`` in a fixed list (header keys, record list, payload
  length and values): the error ``load_checkpoint`` raises, with the file's
  path written as ``<path>``, or ``loaded``;
- writes the schedule tables of ``bridgediff info`` at (T, s) = (1000, 1)
  and (37, 4), and the report of ``bridgediff verify``;
- writes ``process_ops.bin``, the float64 bytes of ``forward_sample``,
  ``loss_target``, ``posterior`` and ``reverse_mean`` on a seeded grid:
  T = 2, 37 and 1000, steps at the ends of each function's range and
  between, scalar and (d,) states for all four, and a (B, d) batch with a
  step array for ``forward_sample``;
- writes ``config_errors.txt``, the error line of each config in a fixed
  list that sets one key to a bad value, covering every ``TrainConfig``
  key that has a range.

The output opens with ``#`` lines naming the Python, numpy and BLAS
versions, which the hashes depend on. Then each line is
``<sha256>  <path>``, sorted by path, for every file those steps write.
Run it at two commits and diff the outputs: a change that keeps results
byte-identical prints the same lines. BLAS is pinned to one thread. This
is a tool for comparing commits on one machine, not a test.

``replay_hashes.txt`` beside this script is the committed listing. With
``--check`` the script reruns the recipe and compares the result with it:
it prints each ``changed``, ``missing`` or ``extra`` path and exits 1 on
any difference, 0 when every line matches. When the ``#`` lines differ from
this environment's, the listings are not comparable: it says so and exits 2
without running the recipe. To update the listing, redirect a plain run
into that file.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import platform
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bridgediff import cli, data  # noqa: E402
from bridgediff.checkpoint import MAGIC, load_checkpoint, save_checkpoint  # noqa: E402
from bridgediff.configfile import UsageError, build_train_config  # noqa: E402
from bridgediff.process import forward_sample, loss_target, posterior, reverse_mean  # noqa: E402
from bridgediff.schedule import build_schedule  # noqa: E402
from bridgediff.seeding import rng_for  # noqa: E402
from bridgediff.training import TrainConfig, run_training  # noqa: E402

# The acceptance configuration of the two-moons task (tests/test_acceptance.py).
MOONS = dict(
    T=1000, s=1.0, batch_size=128, hidden=(96, 96), embed_dim=48, lr=1e-3, min_lr=1e-5,
    ema_decay=0.995, ema_update_interval=4, ema_start_step=500, plateau_patience=10,
    plateau_cooldown=5, plateau_threshold=1e-5, val_fraction=0.05,
)


# One bad value per config, as the config file spells it.
BAD_CONFIG = [
    ("T", "1"), ("T", "0"), ("T", "abc"), ("s", "0"), ("s", "-1"), ("s", "nan"), ("s", "inf"),
    ("s", "1e300"), ("s", "1e-320"), ("embed_dim", "0"), ("embed_dim", "-2"), ("embed_dim", "7"),
    ("hidden", ""), ("hidden", "16,0"), ("hidden", "-3"), ("batch_size", "0"),
    ("checkpoint_interval", "0"), ("validation_interval", "0"), ("seed", "-1"),
    ("max_steps", "-1"), ("val_fraction", "1"), ("val_fraction", "-0.1"), ("lr", "0"),
    ("lr", "nan"), ("lr", "inf"), ("min_lr", "0"), ("min_lr", "2e-3"), ("adam_beta1", "1"),
    ("adam_beta1", "-0.1"), ("adam_beta1", "nan"), ("adam_beta2", "1"), ("adam_eps", "0"),
    ("adam_eps", "inf"), ("adam_eps", "nan"), ("ema_decay", "1"), ("ema_decay", "-0.1"),
    ("ema_update_interval", "0"), ("plateau_factor", "0"), ("plateau_factor", "1"),
    ("plateau_factor", "nan"), ("plateau_threshold", "-1"), ("plateau_threshold", "inf"),
    ("plateau_threshold", "nan"), ("plateau_patience", "-5"), ("plateau_patience", "0"),
    ("plateau_cooldown", "-3"), ("ema_start_step", "-7"),
]


def _config_errors(path: Path) -> None:
    """Write ``key=value: message`` for each config in ``BAD_CONFIG``."""
    lines = []
    for key, value in BAD_CONFIG:
        try:
            build_train_config({"seed": "1", key: value})
        except UsageError as exc:
            lines.append(f"{key}={value}: {exc}\n")
        else:
            raise SystemExit(f"config {key}={value} was accepted")
    path.write_text("".join(lines), encoding="utf-8")


def _edited_checkpoints(blob: bytes) -> list[tuple[str, bytes]]:
    """(label, bytes) of each edit of the moons checkpoint ``blob``: the
    edits of the checkpoint tests, at this checkpoint's sizes."""
    (n,) = struct.unpack("<I", blob[len(MAGIC) : len(MAGIC) + 4])
    header, payload = json.loads(blob[len(MAGIC) + 4 : len(MAGIC) + 4 + n]), blob[len(MAGIC) + 4 + n :]
    arrays = header["arrays"]

    def file(h=header, p=payload, magic=MAGIC) -> bytes:
        text = json.dumps(h, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return magic + struct.pack("<I", len(text)) + text + p

    def edit(key: str, *value) -> dict:
        """The header with ``key`` (``section.name`` for a nested one) set
        to ``value``, or removed when no value is given."""
        h = copy.deepcopy(header)
        *section, name = key.split(".")
        target = h[section[0]] if section else h
        if value:
            target[name] = value[0]
        else:
            del target[name]
        return h

    def start(name: str) -> int:
        """Byte offset in the payload of the record ``name``."""
        names = [record["name"] for record in arrays]
        return 8 * sum(math.prod(record["shape"]) for record in arrays[: names.index(name)])

    def poke(name: str, value: float) -> bytes:
        """The payload with entry 3 of the record ``name`` set to ``value``."""
        at = start(name) + 24
        return payload[:at] + struct.pack("<d", value) + payload[at + 8 :]

    at = start("adam_v.5")
    shape0 = arrays[0]["shape"]
    edits = [("model.activation=relu", file(edit("model.activation", "relu")))]
    edits += [(f"no {key}", file(edit(key))) for key in
              ("model", "arrays", "adam", "ema", "plateau", "T", "step", "plateau.cooldown",
               "model.hidden")]
    edits += [
        ("T=inf", file(edit("T", math.inf))), ("step=inf", file(edit("step", math.inf))),
        ("arrays=5", file(edit("arrays", 5))), ("magic=XDGCKPT1", file(magic=b"X" + MAGIC[1:])),
        ("payload less 16 bytes", file(p=payload[:-16])),
        ("payload and junk", file(p=payload + b"junk")),
        ("model.hidden=[96]", file(edit("model.hidden", [96]))),
        ("model.hidden=[96,96,96]", file(edit("model.hidden", [96, 96, 96]))),
        ("model.hidden=[96,128]", file(edit("model.hidden", [96, 128]))),
        ("model.data_dim=3", file(edit("model.data_dim", 3))),
        ("arrays=[] and no payload", file(edit("arrays", []), b"")),
        ("no adam_v.5 record and bytes",
         file(edit("arrays", [r for r in arrays if r["name"] != "adam_v.5"]),
              payload[:at] + payload[at + 16 :])),
        ("state_scale.0 of T entries",
         file(edit("arrays", [*arrays[:-1], {"name": "state_scale.0", "shape": [header["T"]]}]),
              payload[:-8])),
    ]
    edits += [(f"{name}[3]={value}", file(p=poke(name, value)))
              for name in ("param.1", "ema.0", "state_scale.0") for value in (math.nan, math.inf)]
    edits += [
        ("arrays[0]<->arrays[1]", file(edit("arrays", [arrays[1], arrays[0], *arrays[2:]]))),
        (f"arrays[0].shape={json.dumps([-k for k in shape0])}",
         file(edit("arrays", [{**arrays[0], "shape": [-k for k in shape0]}, *arrays[1:]]))),
        (f"arrays[0].shape={json.dumps([float(k) for k in shape0])}",
         file(edit("arrays", [{**arrays[0], "shape": [float(k) for k in shape0]}, *arrays[1:]]))),
        ("adam_v.0[3]=nan", file(p=poke("adam_v.0", math.nan))),
        ("adam_v.0[3]=-1", file(p=poke("adam_v.0", -1.0))),
        ("adam_m.0[3]=inf", file(p=poke("adam_m.0", math.inf))),
    ]
    return edits


def _checkpoint_errors(ckpt: Path, path: Path) -> None:
    """Write ``label: message`` for each edit of ``ckpt``, or ``label: loaded``."""
    lines, edited = [], path.with_name("edited.bin")
    for label, blob in _edited_checkpoints(ckpt.read_bytes()):
        edited.write_bytes(blob)
        try:
            load_checkpoint(edited)
            message = "loaded"
        except ValueError as exc:
            message = str(exc).replace(str(edited), "<path>")
        lines.append(f"{label}: {message}\n")
    edited.unlink()
    path.write_text("".join(lines), encoding="utf-8")


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"bridgediff {' '.join(argv)} exited with code {code}")


def _sample(root: Path, ckpt: str, out: str, *extra: str) -> None:
    _run(["sample", "--checkpoint", str(root / ckpt), "--data", str(root / "pairs.csv"),
          "--k", "5", "--steps", "200", "--seed", "7", "--out", str(root / out), *extra])


def _head_lines(samples: Path) -> int:
    """The lines of ``samples``' head: its metadata lines and column header."""
    with open(samples, "rb") as f:
        return data.read_metadata(f, samples, data.SAMPLES_FORMAT, data.SAMPLES_VERSION)[1]


def _check_trajectories(plain: Path, traj: Path) -> None:
    """Stop unless the ``--trajectories`` run in ``traj`` wrote the plain
    run's ``samples.csv`` bytes and each chain's t = 0 row in its
    ``trajectories.csv`` is that chain's ``samples.csv`` row."""
    samples = (traj / "samples.csv").read_bytes()
    if samples != (plain / "samples.csv").read_bytes():
        raise SystemExit(f"{traj.name}/samples.csv differs from {plain.name}/samples.csv")
    rows = samples.decode("utf-8").splitlines()[_head_lines(traj / "samples.csv") :]
    with open(traj / "trajectories.csv", encoding="utf-8") as f:
        next(f)  # the column header
        ends = [f"{row},{rep},{values}" for row, rep, t, values in
                (line.rstrip("\n").split(",", 3) for line in f) if t == "0"]
    if ends != rows:
        raise SystemExit(f"{traj.name}/trajectories.csv: the t = 0 rows are not samples.csv's rows")


def _process_ops(path: Path) -> None:
    """Write the bytes of the four ``process`` functions on a seeded grid."""
    out = []
    for T in (2, 37, 1000):
        sch = build_schedule(T, 1.5)
        rng = rng_for(31, "process_ops", T)
        steps = sorted({0, 1, 2, T // 2, T - 1, T})
        for shape in ((), (3,)):
            for t in steps:
                x0, y, eps, eps_pred = (rng.normal(size=shape) * 4 for _ in range(4))
                if not shape:
                    x0, y, eps, eps_pred = float(x0), float(y), float(eps), float(eps_pred)
                x_t = forward_sample(sch, x0, y, t, eps)
                out += [x_t, loss_target(sch, x0, y, t, eps)]
                if 2 <= t <= T - 1:
                    for g in (posterior(sch, x_t, x0, y, t), reverse_mean(sch, x_t, y, eps_pred, t)):
                        out += [g.mean, g.var]
        t_idx = np.concatenate([steps, rng.integers(0, T + 1, size=8)])
        x0, y, eps = (rng.normal(size=(len(t_idx), 3)) * 4 for _ in range(3))
        out.append(forward_sample(sch, x0, y, t_idx, eps))
    path.write_bytes(b"".join(np.asarray(a, dtype=np.float64).tobytes() for a in out))


def replay(root: Path) -> None:
    pairs = data.gen_two_moons_paired(40000, 0.05, 880)
    data.save(pairs, root / "pairs.csv")
    configs = {
        name: TrainConfig(seed=900, max_steps=500, checkpoint_interval=100,
                          validation_interval=500, weighted_loss=weighted, **MOONS)
        for name, weighted in (("w0", False), ("w1", True))
    }
    for name, config in configs.items():
        run_training(config, pairs, root / name)
    _sample(root, "w0/ckpt_final.bin", "w0_n8", "--n", "8")
    for eta in ("1", "0.5", "0"):
        _sample(root, "w1/ckpt_final.bin", f"w1_n200_eta{eta}", "--n", "200", "--eta", eta)
        _sample(root, "w1/ckpt_final.bin", f"w1_n200_eta{eta}_traj", "--n", "200", "--eta", eta,
                "--trajectories")
        _check_trajectories(root / f"w1_n200_eta{eta}", root / f"w1_n200_eta{eta}_traj")
    samples = root / "w1_n200_eta1" / "samples.csv"
    lines = samples.read_text(encoding="utf-8").splitlines(keepends=True)
    head = _head_lines(samples)
    cut = head + 73 * 5  # rows run input by input, k = 5 rows each
    shards = [root / "w1_n200_eta1_shards" / f"s{i}.csv" for i in range(2)]
    shards[0].parent.mkdir()
    shards[0].write_text("".join(lines[:cut]), encoding="utf-8")
    shards[1].write_text("".join(lines[:head] + lines[cut:]), encoding="utf-8")
    reports = [root / f"eval_w1_n200_eta1{suffix}.csv" for suffix in ("", "_warm", "_shards")]
    # The second and third runs read pairs.csv.selfdist.
    for report, files in zip(reports, ([samples], [samples], shards)):
        _run(["eval", "--samples", *map(str, files), "--reference", str(root / "pairs.csv"),
              "--k", "5", "--out", str(report)])
    for report in reports[1:]:
        if report.read_bytes() != reports[0].read_bytes():
            raise SystemExit(f"{report.name} differs from {reports[0].name}")
    _sample(root, "w1/ckpt_final.bin", "w1_n500", "--n", "500")
    shutil.copytree(root / "w0", root / "w0_resume")
    run_training(configs["w0"], pairs, root / "w0_resume",
                 resume_from=root / "w0_resume" / "ckpt_00000200.bin")
    save_checkpoint(root / "w0" / "ckpt_final_resaved.bin",
                    load_checkpoint(root / "w0" / "ckpt_final.bin"))
    run_training(dataclasses.replace(configs["w0"], max_steps=0, normalize_inputs=False), pairs,
                 root / "w0_noscale")
    save_checkpoint(root / "w0_noscale" / "ckpt_final_resaved.bin",
                    load_checkpoint(root / "w0_noscale" / "ckpt_final.bin"))
    _checkpoint_errors(root / "w0" / "ckpt_final.bin", root / "checkpoint_errors.txt")
    _run(["info", "--T", "1000", "--s", "1.0", "--out", str(root / "info_T1000_s1.csv")])
    _run(["info", "--T", "37", "--s", "4.0", "--out", str(root / "info_T37_s4.csv")])
    _run(["verify", "--report", str(root / "verify_report.txt")])
    _process_ops(root / "process_ops.bin")
    _config_errors(root / "config_errors.txt")


LISTING = Path(__file__).with_suffix(".txt")


def environment() -> list[str]:
    """The ``#`` lines that head a listing: the versions its hashes depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}", f"# blas {blas}"]


def hashes() -> dict[str, str]:
    """Path -> sha256 of every file the recipe writes."""
    with tempfile.TemporaryDirectory(prefix="replay-hashes-") as tmp:
        root = Path(tmp)
        replay(root)
        return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(p for p in root.rglob("*") if p.is_file())}


def check() -> int:
    """Compare a fresh run with ``LISTING``; 0 same, 1 different, 2 not comparable."""
    lines = LISTING.read_text(encoding="utf-8").splitlines()
    listed_env, env = [line for line in lines if line.startswith("#")], environment()
    if listed_env != env:
        print(f"environment differs from {LISTING.name}; the listings are not comparable")
        for line in listed_env:
            print(f"  listed: {line}")
        for line in env:
            print(f"  here:   {line}")
        return 2
    listed = {path: digest for digest, path in
              (line.split("  ", 1) for line in lines if not line.startswith("#"))}
    got = hashes()
    diffs = sorted(
        [(path, "changed") for path in listed.keys() & got.keys() if listed[path] != got[path]]
        + [(path, "missing") for path in listed.keys() - got.keys()]
        + [(path, "extra") for path in got.keys() - listed.keys()]
    )
    for path, kind in diffs:
        print(f"{kind}  {path}")
    if diffs:
        print(f"{len(diffs)} of {len(listed.keys() | got.keys())} paths differ from {LISTING.name}")
        return 1
    print(f"all {len(got)} paths match {LISTING.name}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare a fresh run with {LISTING.name} instead of printing it")
    if parser.parse_args().check:
        return check()
    print("\n".join(environment()))
    for path, digest in hashes().items():
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
