"""Training loops: single-device and distributed-data-parallel."""

from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.ddp import DDPStrategy, DDPTrainer
from repro.training.metrics import mae, masked_abs_error, mse
from repro.training.recovery import RecoveryReport, train_with_recovery
from repro.training.step import average_and_apply, clip_and_step
from repro.training.trainer import EpochRecord, Trainer

__all__ = [
    "mae",
    "mse",
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
]
