"""Command-line surface: verify, train, sample, eval, info.

Exit codes: 0 success, 1 verification/metric failure, 2 usage or
configuration error. All randomness flows from explicit integer seeds, so
every subcommand is replayable; reruns with identical inputs and seeds
produce byte-identical CSV outputs.

The commands check flags, sample and score; ``data`` owns the samples
CSV, which ``sample`` streams to (``data.write_samples``) and ``eval``
reads, checked and grouped by conditioning input
(``data.read_sample_set``).

``eval`` keeps each reference's energy-distance self term in a file beside
it (``<reference>.selfdist``, see ``metrics.reference_self_sum``), so
scoring further sample sets against the same reference skips that term;
the report is the same bytes either way.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import verify as verify_mod
from .checkpoint import load_checkpoint
from .configfile import (
    UsageError,
    apply_overrides,
    build_train_config,
    parse_kv_file,
    resolve_dataset,
)
from .data import load as load_dataset, read_sample_set, write_samples
from .fileio import format_float, write_atomic
from .metrics import diversity, energy_distance, moments, reference_self_sum
from .sampling import NonFiniteState, SamplerPlan, accelerated_sample, make_grid
from .schedule import build_schedule
from .training import TrainingDiverged, run_training
from .seeding import rng_for


# Chains ``sample`` advances together: one MLP forward per step covers a
# block, and the block's state, noise and trajectories bound its memory.
SAMPLE_BLOCK = 256

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


def cmd_sample(args) -> int:
    try:
        ckpt = load_checkpoint(args.checkpoint)
    except FileNotFoundError as exc:
        raise UsageError(f"checkpoint not found: {args.checkpoint}") from exc
    model = ckpt.model if args.raw_params else ckpt.ema_model()
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
    chains = n * args.k  # chain i is (row, rep) = divmod(i, k)

    def blocks():
        for start in range(0, chains, SAMPLE_BLOCK):
            # Each block lists only its own pairs: memory stays flat in n * k.
            block = [divmod(i, args.k) for i in range(start, min(start + SAMPLE_BLOCK, chains))]
            seeds = [int(rng_for(args.seed, "sample", row, rep).integers(2**62))
                     for row, rep in block]
            try:
                x0, traj = accelerated_sample(schedule, eps_fn, dataset.y[[row for row, _ in block]],
                                              replace(plan, seed=seeds))
            except NonFiniteState as exc:
                row, rep = block[exc.chain]
                raise UsageError(f"non-finite state at step t={exc.step} in chain "
                                 f"(row {row}, rep {rep})") from exc
            except FloatingPointError as exc:
                raise UsageError(f"sampling failed: {exc}") from exc
            yield block, x0, traj

    meta = {"seed": args.seed, "steps": args.steps, "eta": args.eta, "k": args.k, "n": n,
            "dim": dataset.dim}
    print(f"samples: {write_samples(Path(args.out), meta, blocks(), args.trajectories)}")
    return 0


def cmd_eval(args) -> int:
    if args.k < 1:
        raise UsageError(f"k must be >= 1, got {args.k}")
    set_meta, samples, groups = read_sample_set(args.samples, args.k)

    ref_path = Path(args.reference)
    if not ref_path.exists():
        raise UsageError(f"reference file not found: {ref_path}")
    reference = load_dataset(ref_path)
    if reference.dim != samples.shape[1]:
        raise UsageError(
            f"dimension mismatch: samples {samples.shape[1]}, reference {reference.dim}"
        )

    div = diversity(groups, k=args.k)
    ed = energy_distance(samples, reference.x0, reference_self_sum(ref_path, reference.x0))
    mom = moments(samples)

    n, seed = samples.shape[0], set_meta.get("seed", "")
    rows = [("diversity", div, len(groups)), ("energy_distance", ed, n)]
    rows += [(f"{name}_{i}", v[i], n) for i in range(samples.shape[1])
             for name, v in (("mean", mom.mean), ("var", mom.var))]
    lines = [f"{name},{format_float(v)},{count},{seed}" for name, v, count in rows]
    report = "\n".join(["metric,value,n,seed", *lines]) + "\n"
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
        lines.append(",".join((str(t), *("" if math.isnan(v) else format_float(v) for v in row))))
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
    p.add_argument("--trajectories", action="store_true", help="also write every chain's "
                   "reverse path, t = T down to 0, to trajectories.csv beside samples.csv")
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
