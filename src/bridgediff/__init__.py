"""Pinned-endpoint diffusion for paired translation at desk scale."""

from .schedule import BridgeSchedule, build_schedule, coarse_posterior_var
from .process import (
    GaussianParams,
    forward_sample,
    loss_target,
    posterior,
    reverse_mean,
)
from .oracle import (
    JointGaussianSpec,
    exact_reverse_chain,
    grid_bayes_posterior,
    optimal_eps,
    posterior_grid_bounds,
)
from .nn import NoisePredictor
from .optim import (
    AdamState,
    EmaState,
    PlateauLrState,
    adam_step,
    ema_update,
    plateau_lr_step,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    PairedDataset,
    gen_binary_patterns,
    gen_joint_gaussian,
    gen_two_moons_paired,
    load,
    moons_map,
    save,
    write_trajectory_csv,
)
from .sampling import (
    SamplerPlan,
    accelerated_sample,
    ancestral_sample,
    make_grid,
)
from .training import TrainConfig, TrainResult, run_training, train_step
from .metrics import Moments, diversity, energy_distance, moments
from .seeding import rng_for

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BridgeSchedule",
    "Checkpoint",
    "EmaState",
    "GaussianParams",
    "JointGaussianSpec",
    "Moments",
    "NoisePredictor",
    "PairedDataset",
    "PlateauLrState",
    "SamplerPlan",
    "TrainConfig",
    "TrainResult",
    "accelerated_sample",
    "adam_step",
    "ancestral_sample",
    "build_schedule",
    "coarse_posterior_var",
    "diversity",
    "ema_update",
    "energy_distance",
    "exact_reverse_chain",
    "forward_sample",
    "gen_binary_patterns",
    "gen_joint_gaussian",
    "gen_two_moons_paired",
    "grid_bayes_posterior",
    "load",
    "load_checkpoint",
    "loss_target",
    "make_grid",
    "moments",
    "moons_map",
    "optimal_eps",
    "plateau_lr_step",
    "posterior",
    "posterior_grid_bounds",
    "reverse_mean",
    "rng_for",
    "run_training",
    "save",
    "save_checkpoint",
    "train_step",
    "write_trajectory_csv",
]
