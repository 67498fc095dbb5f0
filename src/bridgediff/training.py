"""Training loop: data sampling, forward noising, loss, Adam, EMA, LR.

Per-step randomness is keyed by (seed, "step", step index) rather than by a
sequential stream, so a run resumed from any checkpoint replays exactly the
continuation of the uninterrupted run. The loss trace is a pure function of
(config, dataset bytes, seed).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import PairedDataset
from .nn import NoisePredictor
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
        if self.T < 2:
            raise ValueError(f"T must be >= 2, got {self.T}")
        for name in ("batch_size", "embed_dim", "checkpoint_interval",
                     "validation_interval", "ema_update_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("seed", "max_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        for name in ("s", "lr", "min_lr", "adam_eps"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if self.min_lr > self.lr:
            raise ValueError(f"min_lr must not exceed lr, got min_lr={self.min_lr}, lr={self.lr}")
        for name in ("adam_beta1", "adam_beta2", "ema_decay"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ValueError(f"plateau_factor must lie in (0, 1), got {self.plateau_factor}")
        if self.embed_dim % 2 != 0:
            raise ValueError(f"embed_dim must be even, got {self.embed_dim}")
        self.hidden = tuple(int(h) for h in self.hidden)
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError(f"hidden must list one or more widths, each >= 1, got {self.hidden}")


@dataclass
class TrainResult:
    checkpoint_path: Path
    metrics_path: Path
    steps: int
    final_val_loss: float | None


class TrainingDiverged(RuntimeError):
    """Raised when the loss or a gradient stops being finite."""


def train_step(
    model: NoisePredictor,
    schedule: BridgeSchedule,
    x0: np.ndarray,
    y: np.ndarray,
    adam: AdamState,
    lr: float,
    rng: np.random.Generator,
    weighted: bool = False,
) -> float:
    """One optimization step over a batch of pairs.

    Draws a uniform step index and unit noise per pair, forms the noisy
    state and its target, and applies one Adam update on the batch-mean
    squared error. In weighted mode the per-pair error is scaled by
    coef_noise at the drawn step, which is then drawn from 1..T-1 (the
    weight is singular at t = T).
    """
    if x0.ndim != 2 or x0.shape != y.shape or x0.shape[0] < 1:
        raise ValueError(f"batch arrays must share an (n, dim) shape, got {x0.shape} and {y.shape}")
    high = schedule.T if not weighted else schedule.T - 1
    t_idx = rng.integers(1, high + 1, size=x0.shape[0])
    eps = rng.standard_normal(x0.shape)
    x_t = forward_sample(schedule, x0, y, t_idx, eps)
    target = x_t - x0
    weights = schedule.coef_noise[t_idx][:, None] if weighted else None
    loss, grad = model._loss_and_grad(x_t, t_idx, target, schedule.T, sample_weight=weights)
    adam_step(model.flat, grad, adam, lr)
    return loss


def _format_float(v: float) -> str:
    return repr(float(v))


class _Validator:
    """Deterministic validation loss: a fixed held-out set evaluated on a
    fixed step grid with frozen noise, so revalidations are comparable."""

    def __init__(self, schedule: BridgeSchedule, x0: np.ndarray, y: np.ndarray, seed: int):
        T = schedule.T
        ts = sorted({min(max(1, round(i * T / 10)), T - 1) for i in range(1, 10)})
        self.t_idx = np.repeat(np.array(ts), x0.shape[0])
        self.x0 = np.tile(x0, (len(ts), 1))
        y_rep = np.tile(y, (len(ts), 1))
        eps = rng_for(seed, "val").standard_normal(self.x0.shape)
        self.x_t = forward_sample(schedule, self.x0, y_rep, self.t_idx, eps)
        self.target = self.x_t - self.x0
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
    continues the exact step sequence of an uninterrupted run.
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
        if ckpt.model.data_dim != dataset.dim:
            raise ValueError(
                f"checkpoint dimension {ckpt.model.data_dim} does not match dataset {dataset.dim}"
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
        adam = AdamState.for_params(
            model.flat, config.adam_beta1, config.adam_beta2, config.adam_eps
        )
        ema = EmaState.from_params(
            model.flat, config.ema_decay, config.ema_start_step,
            config.ema_update_interval,
        )
        plateau = PlateauLrState.create(
            config.lr, config.min_lr, config.plateau_factor, config.plateau_patience,
            config.plateau_cooldown, config.plateau_threshold,
        )
        start_step = 0

    def checkpoint_at(step: int) -> Checkpoint:
        return Checkpoint(
            T=config.T, s=config.s, step=step, model=model, ema=ema,
            adam=adam, plateau=plateau,
        )

    metrics_path = out_dir / "metrics.csv"
    final_path = out_dir / "ckpt_final.bin"
    final_val: float | None = None

    with open(metrics_path, "w", encoding="utf-8", newline="\n") as log:
        log.write(METRICS_HEADER + "\n")
        if config.max_steps == 0:
            save_checkpoint(final_path, checkpoint_at(start_step))
            return TrainResult(final_path, metrics_path, start_step, None)

        for step in range(start_step + 1, config.max_steps + 1):
            rng = rng_for(config.seed, "step", step)
            rows = rng.integers(0, x0_train.shape[0], size=config.batch_size)
            try:
                loss = train_step(
                    model, schedule, x0_train[rows], y_train[rows], adam,
                    plateau.current_lr, rng, config.weighted_loss,
                )
            except FloatingPointError as exc:
                raise TrainingDiverged(
                    f"step {step}: {exc}; lr={plateau.current_lr}, "
                    f"batch rows={rows[:8].tolist()}..."
                ) from exc
            ema_update(ema, model.flat, step)

            val_field = ""
            if validator is not None and (
                step % config.validation_interval == 0 or step == config.max_steps
            ):
                final_val = validator.loss(model)
                plateau_lr_step(plateau, final_val)
                val_field = _format_float(final_val)
            log.write(
                f"{step},{_format_float(loss)},{_format_float(plateau.current_lr)},{val_field}\n"
            )

            if step % config.checkpoint_interval == 0 and step != config.max_steps:
                save_checkpoint(out_dir / f"ckpt_{step:08d}.bin", checkpoint_at(step))

    save_checkpoint(final_path, checkpoint_at(config.max_steps))
    return TrainResult(final_path, metrics_path, config.max_steps, final_val)
