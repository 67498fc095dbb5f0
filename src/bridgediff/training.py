"""Training loop: data sampling, forward noising, loss, Adam, EMA, LR.

Per-step randomness is keyed by (seed, "step", step index) rather than by a
sequential stream, so a run resumed from any checkpoint replays exactly the
continuation of the uninterrupted run, and the loop can prepare the
batches of many steps in one pass with the same bits. The loss trace is a
pure function of (config, dataset bytes, seed).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import PairedDataset
from .fileio import format_float
from .nn import NoisePredictor, layer_shapes
from .optim import (
    AdamState,
    EmaState,
    PlateauLrState,
    adam_step,
    ema_update,
    plateau_lr_step,
)
from .process import forward_sample
from .schedule import BridgeSchedule, build_schedule
from .seeding import rng_for

METRICS_HEADER = "step,loss,lr,val_loss"

# run_training draws, noises and targets the batches of up to this many
# steps in one pass, then runs train_step on each in turn; fewer steps when
# those arrays would pass about _CHUNK_BYTES, so a large batch x dim keeps
# the chunk's memory bounded.
_CHUNK_STEPS = 64
_CHUNK_BYTES = 1 << 20


@dataclass
class TrainConfig:
    """Everything a training run depends on besides the dataset bytes."""

    seed: int
    T: int = 1000
    s: float = 1.0
    batch_size: int = 64
    max_steps: int = 10000
    hidden: tuple[int, ...] = (64, 64)
    embed_dim: int = 32
    lr: float = 1.0e-4
    min_lr: float = 5.0e-7
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1.0e-8
    ema_decay: float = 0.995
    ema_update_interval: int = 16
    ema_start_step: int = 0
    plateau_factor: float = 0.5
    plateau_patience: int = 3000
    plateau_cooldown: int = 2000
    plateau_threshold: float = 1.0e-4
    checkpoint_interval: int = 1000
    validation_interval: int = 200
    val_fraction: float = 0.1
    weighted_loss: bool = False
    normalize_inputs: bool = True
    dataset: str | None = None
    generator: str | None = None
    gen_params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("batch_size", "checkpoint_interval", "validation_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("seed", "max_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        # lr is the plateau state's max_lr and current_lr, so only the config can name it.
        for name in ("lr", "min_lr"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if self.min_lr > self.lr:
            raise ValueError(f"min_lr must not exceed lr, got min_lr={self.min_lr}, lr={self.lr}")
        build_schedule(self.T, self.s)
        self.hidden = tuple(int(h) for h in self.hidden)
        layer_shapes(1, self.embed_dim, self.hidden)
        self.optimizer_states(np.empty(0))

    def optimizer_states(self, flat: np.ndarray) -> tuple[AdamState, EmaState, PlateauLrState]:
        """A fresh run's Adam, EMA and plateau states over parameters ``flat``."""
        return (
            AdamState.for_params(flat, self.adam_beta1, self.adam_beta2, self.adam_eps),
            EmaState.from_params(flat, self.ema_decay, self.ema_start_step, self.ema_update_interval),
            PlateauLrState.create(self.lr, self.min_lr, self.plateau_factor, self.plateau_patience,
                                  self.plateau_cooldown, self.plateau_threshold),
        )


@dataclass
class TrainResult:
    checkpoint_path: Path
    metrics_path: Path
    steps: int
    final_val_loss: float | None


class TrainingDiverged(RuntimeError):
    """Raised when the loss or a gradient stops being finite."""


def train_step(model: NoisePredictor, T: int, x_t: np.ndarray, t_idx: np.ndarray,
               target: np.ndarray, weights: np.ndarray | None, adam: AdamState,
               lr: float) -> float:
    """One Adam update on an already-noised batch; returns the batch loss.

    The loss is the batch-mean squared error of the prediction at
    (``x_t``, ``t_idx``) against ``target``, each pair's error scaled by
    its row of ``weights`` when given. ``run_training`` runs every step
    through here, on the states, targets and weights ``_draw`` and
    ``_noised`` prepared for many steps at once.
    """
    if x_t.ndim != 2 or x_t.shape != target.shape or x_t.shape[0] < 1:
        raise ValueError(
            f"batch arrays must share an (n, dim) shape, got {x_t.shape} and {target.shape}"
        )
    loss, grad = model._loss_and_grad(x_t, t_idx, target, T, sample_weight=weights)
    adam_step(model.flat, grad, adam, lr)
    return loss


def _draw(rng: np.random.Generator, schedule: BridgeSchedule, n_rows: int,
          shape: tuple[int, int], weighted: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A batch's rows of the ``n_rows`` training pairs, a step index per
    pair, then unit noise of ``shape``, from ``rng``. In weighted mode the
    steps come from 1..T-1 (the weight coef_noise is singular at t = T)."""
    rows = rng.integers(0, n_rows, size=shape[0])
    high = schedule.T if not weighted else schedule.T - 1
    t_idx = rng.integers(1, high + 1, size=shape[0])
    return rows, t_idx, rng.standard_normal(shape)


def _noised(schedule: BridgeSchedule, x0: np.ndarray, y: np.ndarray, t_idx: np.ndarray,
            eps: np.ndarray, weighted: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Noisy states, their targets and (weighted mode) per-pair loss weights.

    Row by row, so any stack of batches gives each batch's own rows bit for
    bit. An overflow here shows as its step's non-finite loss.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x_t = forward_sample(schedule, x0, y, t_idx, eps)
        target = x_t - x0
    weights = schedule.coef_noise[t_idx][:, None] if weighted else None
    return x_t, target, weights


class _Validator:
    """Deterministic validation loss: a fixed held-out set evaluated on a
    fixed step grid with frozen noise, so revalidations are comparable."""

    def __init__(self, schedule: BridgeSchedule, x0: np.ndarray, y: np.ndarray, seed: int):
        T = schedule.T
        ts = sorted({min(max(1, round(i * T / 10)), T - 1) for i in range(1, 10)})
        self.t_idx = np.repeat(np.array(ts), x0.shape[0])
        x0_rep = np.tile(x0, (len(ts), 1))
        y_rep = np.tile(y, (len(ts), 1))
        eps = rng_for(seed, "val").standard_normal(x0_rep.shape)
        self.x_t, self.target, _ = _noised(schedule, x0_rep, y_rep, self.t_idx, eps, False)
        self.T = T

    def loss(self, model: NoisePredictor) -> float:
        pred = model.forward(self.x_t, self.t_idx, self.T)
        diff = pred - self.target
        return float(np.mean(diff * diff))


def run_training(
    config: TrainConfig,
    dataset: PairedDataset,
    out_dir,
    resume_from=None,
) -> TrainResult:
    """Run the configured number of steps, writing checkpoints and metrics.

    ``max_steps = 0`` emits the initial checkpoint and an empty metrics log.
    ``resume_from`` restores model/optimizer/EMA/scheduler state and
    continues the exact step sequence of an uninterrupted run. A checkpoint
    past ``max_steps``, or whose schedule, data dimension, ``hidden``,
    ``embed_dim`` or ``normalize_inputs`` differ from the run's, is a
    ``ValueError``, raised before any file is written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    schedule = build_schedule(config.T, config.s)

    n_val = int(round(config.val_fraction * dataset.n))
    if config.val_fraction > 0.0:
        n_val = max(1, n_val)
    if dataset.n - n_val < 1:
        raise ValueError("validation split leaves no training rows")
    perm = rng_for(config.seed, "split").permutation(dataset.n)
    val_rows = perm[:n_val]
    train_rows = perm[n_val:]
    x0_train = dataset.x0[train_rows]
    y_train = dataset.y[train_rows]
    validator = (
        _Validator(schedule, dataset.x0[val_rows], dataset.y[val_rows], config.seed)
        if n_val > 0
        else None
    )

    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        if ckpt.T != config.T or ckpt.s != config.s:
            raise ValueError(
                f"checkpoint schedule (T={ckpt.T}, s={ckpt.s}) does not match "
                f"config (T={config.T}, s={config.s})"
            )
        for key, have, want in (
            ("dimension", ckpt.model.data_dim, dataset.dim),
            ("hidden", ckpt.model.hidden, config.hidden),
            ("embed_dim", ckpt.model.embed_dim, config.embed_dim),
            ("normalize_inputs", ckpt.model.state_scale is not None, config.normalize_inputs),
        ):
            if have != want:
                raise ValueError(f"checkpoint {key}={have!r} does not match the run's {want!r}")
        if config.max_steps < ckpt.step:
            raise ValueError(
                f"cannot resume a step-{ckpt.step} checkpoint with max_steps={config.max_steps}: "
                "the run would end before the checkpoint"
            )
        model, ema, adam, plateau = ckpt.model, ckpt.ema, ckpt.adam, ckpt.plateau
        start_step = ckpt.step
    else:
        state_scale = None
        if config.normalize_inputs:
            # Per-step scale of a typical state: clean-data spread plus the
            # schedule's marginal variance. Keeps the net's inputs O(1)
            # regardless of the variance scale s.
            # A spread that overflows is capped at the largest float: the
            # scale stays finite, as ``create`` requires, and such data
            # fails as a diverged first step.
            with np.errstate(over="ignore", invalid="ignore"):
                data_var = 0.5 * float(np.mean(dataset.x0.var(axis=0) + dataset.y.var(axis=0)))
            data_var = min(max(data_var, 1e-12), sys.float_info.max)
            state_scale = np.sqrt(data_var + schedule.marginal_var)
        model = NoisePredictor.create(
            dataset.dim, config.hidden, config.embed_dim, rng_for(config.seed, "init"),
            state_scale=state_scale,
        )
        adam, ema, plateau = config.optimizer_states(model.flat)
        start_step = 0

    def checkpoint_at(step: int) -> Checkpoint:
        return Checkpoint(
            T=config.T, s=config.s, step=step, model=model, ema=ema,
            adam=adam, plateau=plateau,
        )

    metrics_path = out_dir / "metrics.csv"
    final_path = out_dir / "ckpt_final.bin"
    final_val: float | None = None

    # A resume into the directory of an earlier run keeps that run's rows
    # up to the checkpoint's step and replaces the rest.
    if resume_from is not None and metrics_path.exists():
        os.truncate(metrics_path, _history_bytes(metrics_path, start_step))
        mode = "a"
    else:
        mode = "w"
    with open(metrics_path, mode, encoding="utf-8", newline="\n") as log:
        if mode == "w":
            log.write(METRICS_HEADER + "\n")

        batch = config.batch_size
        # A step's rows, step indices and loss weights, and its noise, pairs,
        # states and targets: 8 * batch * (3 + 5 * dim) bytes.
        step_bytes = 8 * batch * (3 + 5 * dataset.dim)
        chunk_steps = max(1, min(_CHUNK_STEPS, _CHUNK_BYTES // step_bytes))
        for first in range(start_step + 1, config.max_steps + 1, chunk_steps):
            # Every step's draws come from its own generator, so the
            # chunking does not change them.
            steps = range(first, min(first + chunk_steps, config.max_steps + 1))
            rows = np.empty((len(steps), batch), dtype=np.intp)
            t_idx = np.empty((len(steps), batch), dtype=np.intp)
            eps = np.empty((len(steps), batch, dataset.dim))
            for i, step in enumerate(steps):
                rows[i], t_idx[i], eps[i] = _draw(
                    rng_for(config.seed, "step", step), schedule, x0_train.shape[0],
                    (batch, dataset.dim), config.weighted_loss,
                )
            flat_rows = rows.reshape(-1)
            x_t, target, weights = _noised(
                schedule, x0_train[flat_rows], y_train[flat_rows], t_idx.reshape(-1),
                eps.reshape(-1, dataset.dim), config.weighted_loss,
            )
            for i, step in enumerate(steps):
                part = slice(i * batch, (i + 1) * batch)
                try:
                    loss = train_step(
                        model, config.T, x_t[part], t_idx[i], target[part],
                        None if weights is None else weights[part], adam,
                        plateau.current_lr,
                    )
                except FloatingPointError as exc:
                    raise TrainingDiverged(
                        f"step {step}: {exc}; lr={plateau.current_lr}, "
                        f"batch rows={rows[i, :8].tolist()}..."
                    ) from exc
                ema_update(ema, model.flat, step)

                val_field = ""
                if validator is not None and (
                    step % config.validation_interval == 0 or step == config.max_steps
                ):
                    final_val = validator.loss(model)
                    plateau_lr_step(plateau, final_val)
                    val_field = format_float(final_val)
                log.write(
                    f"{step},{format_float(loss)},{format_float(plateau.current_lr)},{val_field}\n"
                )

                if step % config.checkpoint_interval == 0 and step != config.max_steps:
                    save_checkpoint(out_dir / f"ckpt_{step:08d}.bin", checkpoint_at(step))

    save_checkpoint(final_path, checkpoint_at(config.max_steps))
    return TrainResult(final_path, metrics_path, config.max_steps, final_val)


def _history_bytes(path: Path, step: int) -> int:
    """Length of the header and the rows for steps 1..``step`` of an
    earlier run's metrics log; a log that does not begin with them is a
    ``ValueError`` naming the file."""
    with open(path, "rb") as f:
        lines = f.readlines()
    kept = lines[: step + 1]
    if (
        len(kept) != step + 1
        or kept[0] != (METRICS_HEADER + "\n").encode()
        or any(not line.startswith(b"%d," % i) or not line.endswith(b"\n")
               for i, line in enumerate(kept[1:], start=1))
    ):
        raise ValueError(
            f"cannot resume into {path}: its rows are not steps 1..{step} under the "
            f"{METRICS_HEADER!r} header"
        )
    return sum(map(len, kept))
