"""The training loss for sequence-to-sequence forecasting.

The paper reports MAE (its Figures 5/8, Tables 3/5) and MSE (Table 6).
Every trainer minimises L1 on standardized values; masked MAE in original
units is an evaluation metric (:mod:`repro.training.metrics`).
"""

from __future__ import annotations

from repro.autograd.tensor import Tensor, as_tensor


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error."""
    target = as_tensor(target, like=pred)
    return (pred - target).abs().mean()
