"""Weight initialisation schemes."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import DEFAULT_DTYPE


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Xavier/Glorot uniform init, the PyTorch default for linear-like layers."""
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape).astype(DEFAULT_DTYPE)


def zeros_(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=DEFAULT_DTYPE)
