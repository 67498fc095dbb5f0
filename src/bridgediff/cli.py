"""Command-line surface: verify, train, sample, eval, info.

Exit codes: 0 success, 1 verification/metric failure, 2 usage or
configuration error. All randomness flows from explicit integer seeds, so
every subcommand is replayable; reruns with identical inputs and seeds
produce byte-identical CSV outputs.

``eval`` keeps each reference's energy-distance self term in a file beside
it (``<reference>.selfdist``, see ``_reference_self_sum``), so scoring
further sample sets against the same reference skips that term; the
report is the same bytes either way.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .checkpoint import load_checkpoint
from .configfile import (
    UsageError,
    apply_overrides,
    build_train_config,
    parse_kv_file,
    resolve_dataset,
)
from .data import load as load_dataset, parse_metadata
from .fileio import temp_beside, write_atomic
from .metrics import diversity, energy_distance, moments, self_distance_key, self_distance_sum
from .sampling import (
    NonFiniteState,
    SamplerPlan,
    accelerated_sample,
    make_grid,
    write_trajectory_csv,
)
from .schedule import build_schedule
from .training import TrainingDiverged, run_training
from .seeding import rng_for


# Chains ``sample`` advances together: one MLP forward per step covers a
# block, and the block's state, noise and trajectories bound its memory.
SAMPLE_BLOCK = 256

# The format and version lines of the samples CSV ``sample`` writes.
SAMPLES_FORMAT = "samples-csv"
SAMPLES_VERSION = 1
# Metadata every shard of one sample set shares; ``n`` counts a shard's own
# inputs and may differ.
SHARD_KEYS = ("seed", "steps", "eta", "k", "dim")

# ``eval`` keeps a reference's self term in ``<reference>`` + SELF_SUM_SUFFIX,
# three lines: SELF_SUM_FORMAT, ``metrics.self_distance_key`` of its x0 and
# ``metrics.self_distance_sum`` of it as ``float.hex``.
SELF_SUM_FORMAT = "bridgediff-selfdist 1"
SELF_SUM_SUFFIX = ".selfdist"


def _fmt(v: float) -> str:
    return repr(float(v))


def cmd_verify(args) -> int:
    results = verify_mod.run_all(seed=args.seed)
    width = max(len(r.family) for r in results)
    lines = [f"{'family':<{width}}  {'tolerance':>10}  {'worst':>12}  {'cases':>5}  status"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.family:<{width}}  {r.tolerance:>10.1e}  {r.worst_error:>12.3e}  "
            f"{r.cases:>5}  {status}" + (f"  ({r.note})" if r.note else "")
        )
    ok = all(r.passed for r in results)
    lines.append("all families passed" if ok else "verification FAILED")
    report = "\n".join(lines)
    print(report)
    if args.report:
        write_atomic(Path(args.report), report + "\n")
    return 0 if ok else 1


def cmd_train(args) -> int:
    raw = parse_kv_file(args.config)
    raw = apply_overrides(raw, args.set or [])
    config = build_train_config(raw)
    dataset = resolve_dataset(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    marker = out_dir / "train.incomplete"
    marker.write_text("training in progress\n", encoding="utf-8")
    result = run_training(config, dataset, out_dir)
    marker.unlink()
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics:    {result.metrics_path}")
    return 0


def _load_model(args):
    try:
        ckpt = load_checkpoint(args.checkpoint)
    except FileNotFoundError as exc:
        raise UsageError(f"checkpoint not found: {args.checkpoint}") from exc
    model = ckpt.model if args.raw_params else ckpt.ema_model()
    return ckpt, model


def cmd_sample(args) -> int:
    ckpt, model = _load_model(args)
    try:
        dataset = load_dataset(args.data)
    except FileNotFoundError as exc:
        raise UsageError(f"data file not found: {args.data}") from exc
    if dataset.dim != model.data_dim:
        raise UsageError(
            f"checkpoint/data mismatch: model dimension {model.data_dim}, "
            f"data dimension {dataset.dim}"
        )
    plan = SamplerPlan(make_grid(ckpt.T, args.steps), args.eta,
                       record_trajectory=args.trajectories)
    n = dataset.n if args.n is None else args.n
    if n < 0 or n > dataset.n:
        raise UsageError(f"n must lie in 0..{dataset.n}, got {args.n}")
    if args.k < 1:
        raise UsageError(f"k must be >= 1, got {args.k}")

    schedule = build_schedule(ckpt.T, ckpt.s)
    eps_fn = model.eps_fn(ckpt.T)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    samples_path = out_dir / "samples.csv"
    chains = [(row, rep) for row in range(n) for rep in range(args.k)]
    # Rows go to a temp file that replaces samples.csv only once every chain
    # has finished, and trajectories take their final names only after that,
    # so a failed run never leaves a complete-looking file.
    samples_tmp = temp_beside(samples_path)
    trajectories = []  # (temp path, final path) per written trajectory
    try:
        with open(samples_tmp, "x", encoding="utf-8", newline="\n") as f:
            f.write(f"# format={SAMPLES_FORMAT}\n# version={SAMPLES_VERSION}\n")
            f.write(f"# seed={args.seed}\n# steps={args.steps}\n# eta={_fmt(args.eta)}\n")
            f.write(f"# k={args.k}\n# n={n}\n# dim={dataset.dim}\n")
            f.write("y_index,sample_index," + ",".join(f"dim_{i}" for i in range(dataset.dim)) + "\n")
            for start in range(0, len(chains), SAMPLE_BLOCK):
                block = chains[start : start + SAMPLE_BLOCK]
                seeds = [int(rng_for(args.seed, "sample", row, rep).integers(2**62))
                         for row, rep in block]
                try:
                    x0, traj = accelerated_sample(
                        schedule, eps_fn, dataset.y[[row for row, _ in block]],
                        replace(plan, seed=seeds),
                    )
                except NonFiniteState as exc:
                    row, rep = block[exc.chain]
                    raise UsageError(
                        f"non-finite state at step t={exc.step} in chain (row {row}, rep {rep})"
                    ) from exc
                except FloatingPointError as exc:
                    raise UsageError(f"sampling failed: {exc}") from exc
                for (row, rep), x in zip(block, x0):
                    f.write(f"{row},{rep}," + ",".join(_fmt(v) for v in x) + "\n")
                if args.trajectories:
                    for b, (row, rep) in enumerate(block):
                        traj_path = out_dir / f"trajectory_{row}_{rep}.csv"
                        traj_tmp = temp_beside(traj_path)
                        trajectories.append((traj_tmp, traj_path))
                        write_trajectory_csv([(t, state[b]) for t, state in traj], traj_tmp)
        os.replace(samples_tmp, samples_path)
        for traj_tmp, traj_path in trajectories:
            os.replace(traj_tmp, traj_path)
    finally:
        for tmp in [samples_tmp, *(traj_tmp for traj_tmp, _ in trajectories)]:
            tmp.unlink(missing_ok=True)
    print(f"samples: {samples_path}")
    return 0


def _read_sample_set(paths, k: int):
    """The first file's metadata, the conditioning indices and the float64
    rows of the sample set whose shards are ``paths``; each rule it breaks
    is a one-line ``UsageError``. Per file, in order: the metadata must pass
    ``data.parse_metadata``; each row must be well formed and finite, with
    a sample index in 0..k-1 and a (y_index, sample_index) pair no earlier
    row of any shard had (naming the line); ``SHARD_KEYS`` must equal the
    first file's; its own ``dim`` and ``k``, when present, must equal its
    value columns and ``k``; and its value columns, even with no rows, must
    number the first file's. Then the set must hold a row."""
    seen: set = set()
    y_idx, parts = [], []
    for i, p in enumerate(paths):
        path = Path(p)
        if not path.exists():
            raise UsageError(f"samples file not found: {path}")
        meta_lines: list[str] = []
        header = None
        values = []
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if header is None:
                    if line.startswith("#"):
                        meta_lines.append(line)
                        continue
                    meta = parse_metadata(meta_lines, path, SAMPLES_FORMAT, SAMPLES_VERSION)
                    header = line.split(",")
                    if header[:2] != ["y_index", "sample_index"]:
                        raise UsageError(f"not a samples CSV: {path}")
                    continue
                fields = line.split(",")
                if len(fields) != len(header):
                    raise UsageError(
                        f"{path} line {lineno}: {len(fields)} fields, the header has {len(header)}"
                    )
                try:
                    pair = int(fields[0]), int(fields[1])
                    row = [float(v) for v in fields[2:]]
                except ValueError as exc:
                    raise UsageError(f"{path} line {lineno}: {exc}") from exc
                if not 0 <= pair[1] < k:
                    raise UsageError(f"{path} line {lineno}: sample_index {pair[1]} outside 0..{k - 1}")
                if pair in seen:
                    raise UsageError(f"{path} line {lineno}: (y_index, sample_index) = {pair} appears twice")
                seen.add(pair)
                y_idx.append(pair[0])
                if not all(map(math.isfinite, row)):
                    raise UsageError(f"{path} line {lineno}: non-finite sample value")
                values.append(row)
        if header is None:
            raise UsageError(f"not a samples CSV: {path}")
        width = len(header) - 2
        if i == 0:
            set_meta, set_width = meta, width
        for key in SHARD_KEYS:
            if meta.get(key) != set_meta.get(key):
                raise UsageError(f"samples files disagree on {key}: {paths[0]} has "
                                 f"{set_meta.get(key)!r}, {p} has {meta.get(key)!r}")
        for key, actual, source in (("dim", width, "value columns"), ("k", k, "--k")):
            if key in meta and meta[key] != str(actual):
                raise UsageError(f"{p}: metadata {key}={meta[key]!r} does not match "
                                 f"{source} ({actual})")
        if width != set_width:
            raise UsageError(f"samples files disagree on value columns: {paths[0]} has "
                             f"{set_width}, {p} has {width}")
        # Only one shard's rows are held as Python lists at a time.
        parts.append(np.array(values, dtype=np.float64).reshape(len(values), width))
    if not y_idx:
        raise UsageError("samples files contain no rows")
    return set_meta, np.array(y_idx, dtype=int), np.concatenate(parts)


def _reference_self_sum(ref_path: Path, x0: np.ndarray) -> float:
    """``self_distance_sum(x0)``, kept in the file beside ``ref_path``.

    The file's value is used only when the file holds exactly the format
    line, ``x0``'s key and a finite, non-negative ``float.hex`` value in its
    canonical spelling, so the value has the bits a fresh computation would
    give, and only when the file belongs to the current user or to the
    reference's owner, so a file planted by anyone else who can create files
    in that directory is not believed. Otherwise (missing, unreadable,
    malformed, another key, another owner) the sum is computed and the file
    rewritten atomically; if that write fails, as in a read-only directory,
    the sum is still returned and no file is left.
    """
    path = ref_path.with_name(ref_path.name + SELF_SUM_SUFFIX)
    head = f"{SELF_SUM_FORMAT}\n{self_distance_key(x0)}\n"
    try:
        with open(path, encoding="ascii") as f:
            owner = os.fstat(f.fileno()).st_uid
            text = f.read(4096)  # more than a well-formed file holds
        value = float.fromhex(text[len(head) : -1])
        if (owner in (os.geteuid(), ref_path.stat().st_uid)
                and text == head + value.hex() + "\n" and math.isfinite(value)
                and math.copysign(1.0, value) > 0):
            return value
    except (OSError, ValueError, OverflowError):
        pass  # no usable file: compute the sum and write one
    value = self_distance_sum(x0)
    try:
        write_atomic(path, head, value.hex() + "\n")
    except OSError:
        pass  # the report does not depend on the file
    return value


def cmd_eval(args) -> int:
    if args.k < 1:
        raise UsageError(f"k must be >= 1, got {args.k}")
    set_meta, y_idx, samples = _read_sample_set(args.samples, args.k)

    ref_path = Path(args.reference)
    if not ref_path.exists():
        raise UsageError(f"reference file not found: {ref_path}")
    reference = load_dataset(ref_path)
    if reference.dim != samples.shape[1]:
        raise UsageError(
            f"dimension mismatch: samples {samples.shape[1]}, reference {reference.dim}"
        )

    uids, counts = np.unique(y_idx, return_counts=True)
    bad = np.flatnonzero(counts != args.k)
    if bad.size:
        raise UsageError(
            f"conditioning input {uids[bad[0]]} has {counts[bad[0]]} samples, expected k={args.k}"
        )
    # Each input's k rows in file order, inputs in ascending order: a stable
    # sort by y_index.
    order = np.argsort(y_idx, kind="stable")
    groups = list(samples[order].reshape(len(uids), args.k, samples.shape[1]))
    div = diversity(groups, k=args.k)
    ed = energy_distance(samples, reference.x0, _reference_self_sum(ref_path, reference.x0))
    mom = moments(samples)

    seed = set_meta.get("seed", "")
    lines = ["metric,value,n,seed"]
    lines.append(f"diversity,{_fmt(div)},{len(groups)},{seed}")
    lines.append(f"energy_distance,{_fmt(ed)},{samples.shape[0]},{seed}")
    for i in range(samples.shape[1]):
        lines.append(f"mean_{i},{_fmt(mom.mean[i])},{samples.shape[0]},{seed}")
        lines.append(f"var_{i},{_fmt(mom.var[i])},{samples.shape[0]},{seed}")
    report = "\n".join(lines) + "\n"
    write_atomic(Path(args.out), report)
    print(report, end="")
    return 0


def cmd_info(args) -> int:
    schedule = build_schedule(args.T, args.s)
    columns = ("mix", "marginal_var", "transition_var", "posterior_var",
               "coef_state", "coef_cond", "coef_noise")
    lines = [",".join(("t", *columns))]
    # A degenerate slot holds NaN in the schedule and prints as an empty field.
    for t, row in enumerate(zip(*(getattr(schedule, c) for c in columns))):
        lines.append(",".join((str(t), *("" if math.isnan(v) else _fmt(v) for v in row))))
    table = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(Path(args.out), table)
        print(f"schedule table: {args.out}")
    else:
        print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgediff",
        description="Pinned-endpoint diffusion for paired translation: "
        "verification, training, sampling, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant suites and report pass/fail")
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--report", type=str, default=None, help="also write the report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("train", help="train a noise predictor per a config file")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sample", help="translate conditioning inputs with a checkpoint")
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--data", type=str, required=True,
                   help="paired dataset CSV supplying the conditioning inputs")
    p.add_argument("--n", type=int, default=None, help="conditioning rows to use (default: all)")
    p.add_argument("--k", type=int, default=1, help="samples per conditioning input")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--raw-params", action="store_true",
                   help="use raw parameters instead of the EMA shadow")
    p.add_argument("--trajectories", action="store_true", help="export per-sample trajectories")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("eval", help="score sample files against a reference dataset")
    p.add_argument("--samples", type=str, nargs="+", required=True)
    p.add_argument("--reference", type=str, required=True)
    p.add_argument("--k", type=int, default=5, help="samples per conditioning input")
    p.add_argument("--out", type=str, required=True, help="report CSV path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("info", help="print the schedule table for (T, s)")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
