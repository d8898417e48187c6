"""Forecast-quality metrics (NumPy, computed in original signal units)."""

from __future__ import annotations

import numpy as np


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error."""
    return float(np.mean(np.abs(np.asarray(pred) - np.asarray(target))))


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error (Table 6 reports test MSE)."""
    diff = np.asarray(pred) - np.asarray(target)
    return float(np.mean(diff * diff))


def masked_abs_error(pred: np.ndarray, target: np.ndarray,
                     null_value: float = 0.0) -> tuple[float, int]:
    """Sum of absolute errors over unmasked entries, plus their count.

    The two-part form lets callers aggregate a correctly-weighted MAE
    across batches whose masked fractions differ: sum the sums, sum the
    counts, divide once.
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    mask = target != null_value
    count = int(np.count_nonzero(mask))
    if count == 0:
        return 0.0, 0
    return float(np.abs(pred[mask] - target[mask]).sum()), count
