"""Optimizers, the linear learning-rate scaling rule, the L1 loss and grad
clipping."""

from repro.optim.losses import l1_loss
from repro.optim.optimizers import SGD, Adam, Optimizer, clip_grad_norm
from repro.optim.schedules import scale_lr_linear

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "l1_loss",
    "scale_lr_linear",
]
