"""Training loops: single-device and distributed-data-parallel."""

from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.ddp import DDPStrategy, DDPTrainer
from repro.training.evaluation import HorizonMetrics, evaluate_by_horizon
from repro.training.metrics import (
    mae,
    mape,
    masked_abs_error,
    masked_mae,
    mse,
    rmse,
)
from repro.training.recovery import RecoveryReport, train_with_recovery
from repro.training.step import average_and_apply, clip_and_step
from repro.training.trainer import EpochRecord, Trainer

__all__ = [
    "mae",
    "mse",
    "rmse",
    "mape",
    "masked_mae",
    "masked_abs_error",
    "Trainer",
    "EpochRecord",
    "DDPTrainer",
    "DDPStrategy",
    "clip_and_step",
    "average_and_apply",
    "save_checkpoint",
    "load_checkpoint",
    "RecoveryReport",
    "train_with_recovery",
    "evaluate_by_horizon",
    "HorizonMetrics",
]
