"""The linear learning-rate scaling rule.

Paper §5.3.3 notes that the MAE degradation with large global batches is
mitigated by learning-rate scaling (Goyal et al. / You et al.); the
Figure 8 ablation scales the learning rate with the world size.
"""

from __future__ import annotations


def scale_lr_linear(base_lr: float, world_size: int, base_world_size: int = 1) -> float:
    """Linear-scaling rule: LR grows proportionally to the global batch size."""
    if world_size < 1 or base_world_size < 1:
        raise ValueError("world sizes must be positive")
    return base_lr * (world_size / base_world_size)
