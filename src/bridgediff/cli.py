"""Command-line surface: verify, train, sample, eval, info.

Exit codes: 0 success, 1 verification/metric failure, 2 usage or
configuration error. All randomness flows from explicit integer seeds, so
every subcommand is replayable; reruns with identical inputs and seeds
produce byte-identical CSV outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
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
from .data import load as load_dataset
from .fileio import temp_beside, write_text_atomic
from .metrics import diversity, energy_distance, moments
from .sampling import (
    NonFiniteState,
    SamplerPlan,
    accelerated_sample,
    make_grid,
    write_trajectory_csv,
)
from .schedule import build_schedule, query
from .training import TrainingDiverged, run_training
from .seeding import rng_for


# Chains ``sample`` advances together: one MLP forward per step covers a
# block, and the block's state, noise and trajectories bound its memory.
SAMPLE_BLOCK = 256


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
        write_text_atomic(Path(args.report), report + "\n")
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
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    model = ckpt.model if args.raw_params else ckpt.ema_model()
    return ckpt, model


def cmd_sample(args) -> int:
    ckpt, model = _load_model(args)
    try:
        dataset = load_dataset(args.data)
    except FileNotFoundError as exc:
        raise UsageError(f"data file not found: {args.data}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if dataset.dim != model.data_dim:
        raise UsageError(
            f"checkpoint/data mismatch: model dimension {model.data_dim}, "
            f"data dimension {dataset.dim}"
        )
    if not 1 <= args.steps <= ckpt.T:
        raise UsageError(f"steps must lie in 1..T={ckpt.T}, got {args.steps}")
    if not 0.0 <= args.eta <= 1.0:
        raise UsageError(f"eta must lie in [0, 1], got {args.eta}")
    n = dataset.n if args.n is None else args.n
    if n < 0 or n > dataset.n:
        raise UsageError(f"n must lie in 0..{dataset.n}, got {args.n}")
    if args.k < 1:
        raise UsageError(f"k must be >= 1, got {args.k}")

    schedule = build_schedule(ckpt.T, ckpt.s)
    grid = make_grid(ckpt.T, args.steps)
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
            f.write("# format=samples-csv\n# version=1\n")
            f.write(f"# seed={args.seed}\n# steps={args.steps}\n# eta={_fmt(args.eta)}\n")
            f.write(f"# k={args.k}\n# n={n}\n# dim={dataset.dim}\n")
            f.write("y_index,sample_index," + ",".join(f"dim_{i}" for i in range(dataset.dim)) + "\n")
            for start in range(0, len(chains), SAMPLE_BLOCK):
                block = chains[start : start + SAMPLE_BLOCK]
                plan = SamplerPlan(
                    grid=grid,
                    eta=args.eta,
                    seed=[int(rng_for(args.seed, "sample", row, rep).integers(2**62))
                          for row, rep in block],
                    record_trajectory=args.trajectories,
                )
                try:
                    x0, traj = accelerated_sample(
                        schedule, eps_fn, dataset.y[[row for row, _ in block]], plan
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


def _read_samples_csv(path, k: int, seen: set):
    """Metadata, conditioning indices and sample rows of a samples CSV.
    A malformed row, a non-finite value, a sample index outside 0..k-1 or
    a (y_index, sample_index) pair already in ``seen`` is a usage error
    that names the file and the line. Adds each row's pair to ``seen``."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"samples file not found: {path}")
    meta = {}
    header = None
    y_idx, values = [], []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
                continue
            if header is None:
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
    values = np.array(values, dtype=np.float64).reshape(len(values), len(header) - 2)
    return meta, np.array(y_idx, dtype=int), values


def cmd_eval(args) -> int:
    if args.k < 1:
        raise UsageError(f"k must be >= 1, got {args.k}")
    all_meta = None
    y_parts, v_parts = [], []
    seen: set = set()
    for p in args.samples:
        meta, y_idx, values = _read_samples_csv(p, args.k, seen)
        if all_meta is None:
            all_meta = meta
        y_parts.append(y_idx)
        v_parts.append(values)
    y_idx = np.concatenate(y_parts)
    samples = np.vstack([v for v in v_parts if v.size]) if any(v.size for v in v_parts) else np.empty((0, 0))
    if samples.shape[0] == 0:
        raise UsageError("samples files contain no rows")

    ref_path = Path(args.reference)
    if not ref_path.exists():
        raise UsageError(f"reference file not found: {ref_path}")
    try:
        reference = load_dataset(ref_path)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if reference.dim != samples.shape[1]:
        raise UsageError(
            f"dimension mismatch: samples {samples.shape[1]}, reference {reference.dim}"
        )

    groups = []
    for uid in np.unique(y_idx):
        group = samples[y_idx == uid]
        if group.shape[0] != args.k:
            raise UsageError(
                f"conditioning input {uid} has {group.shape[0]} samples, expected k={args.k}"
            )
        groups.append(group)
    try:
        div = diversity(groups, k=args.k)
        ed = energy_distance(samples, reference.x0)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    mom = moments(samples)

    seed = all_meta.get("seed", "") if all_meta else ""
    lines = ["metric,value,n,seed"]
    lines.append(f"diversity,{_fmt(div)},{len(groups)},{seed}")
    lines.append(f"energy_distance,{_fmt(ed)},{samples.shape[0]},{seed}")
    for i in range(samples.shape[1]):
        lines.append(f"mean_{i},{_fmt(mom.mean[i])},{samples.shape[0]},{seed}")
        lines.append(f"var_{i},{_fmt(mom.var[i])},{samples.shape[0]},{seed}")
    report = "\n".join(lines) + "\n"
    write_text_atomic(Path(args.out), report)
    print(report, end="")
    return 0


def cmd_info(args) -> int:
    schedule = build_schedule(args.T, args.s)
    lines = ["t,mix,marginal_var,transition_var,posterior_var,coef_state,coef_cond,coef_noise"]
    for t in range(schedule.T + 1):
        entry = query(schedule, t)
        fields = [
            str(t), _fmt(entry.mix), _fmt(entry.marginal_var),
            "" if entry.transition_var is None else _fmt(entry.transition_var),
            "" if entry.posterior_var is None else _fmt(entry.posterior_var),
            "" if entry.coef_state is None else _fmt(entry.coef_state),
            "" if entry.coef_cond is None else _fmt(entry.coef_cond),
            "" if entry.coef_noise is None else _fmt(entry.coef_noise),
        ]
        lines.append(",".join(fields))
    table = "\n".join(lines) + "\n"
    if args.out:
        write_text_atomic(Path(args.out), table)
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
