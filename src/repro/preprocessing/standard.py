"""The standard sliding-window pipeline (paper Algorithm 1).

This is the memory-hungry baseline: it materialises every overlapping
``x`` and ``y`` window, duplicating each raw entry up to ``2 * horizon``
times.  When a :class:`~repro.hardware.memory.MemorySpace` is supplied,
every materialisation is charged against it — at full PeMS scale the
charges exceed a Polaris node's 512 GB during window stacking and raise
:class:`~repro.utils.errors.OutOfMemoryError`, exactly where the paper's
Figure 2 shows the crash.

The allocation sequence mirrors the open-source implementations the paper
profiles (Li et al.'s ``generate_training_data.py`` / PGT's loaders):

1. raw file tensor, then the augmented copy with the time-of-day channel;
2. ``x``/``y`` window lists appended in one loop (both alive together);
3. ``np.stack`` materialises each stacked array while its list is alive;
4. ``(x - mu) / sigma`` allocates a subtraction temporary plus the result;
5. train/val/test splits are materialised as separate arrays (the
   reference writes and reloads ``train.npz``/``val.npz``/``test.npz``).

Deviation from Algorithm 1 as printed: by default the scaler is fitted on
the *raw entries covered by training windows* rather than on the stacked
``x_train`` (``stat_mode="raw"``).  The stacked version weights interior
entries ``horizon`` times more than boundary entries; raw statistics make
standard preprocessing *bitwise identical* to index-batching, which is the
equivalence the paper relies on.  ``stat_mode="stacked"`` reproduces the
literal Algorithm 1; the statistics differ only by ``O(horizon/entries)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import SpatioTemporalDataset
from repro.hardware.memory import Allocation, MemorySpace
from repro.preprocessing.scaler import StandardScaler
from repro.preprocessing.windows import num_snapshots, split_bounds, window_starts


@dataclass
class StandardPreprocessed:
    """Output of the standard pipeline: six stacked arrays plus the scaler.

    Array shapes are ``[snapshots, horizon, nodes, features]``.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    scaler: StandardScaler
    horizon: int
    allocations: list[Allocation] = field(default_factory=list)

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name == "train":
            return self.x_train, self.y_train
        if name == "val":
            return self.x_val, self.y_val
        if name == "test":
            return self.x_test, self.y_test
        raise KeyError(f"unknown split {name!r}")

    @property
    def total_nbytes(self) -> int:
        return sum(a.nbytes for a in (self.x_train, self.y_train, self.x_val,
                                      self.y_val, self.x_test, self.y_test))

    def release(self, space: MemorySpace) -> None:
        """Free the pipeline's live allocations from ``space``."""
        for alloc in self.allocations:
            space.free(alloc)
        self.allocations.clear()


class _Charger:
    """Track (and on request replay without data) pipeline allocations."""

    def __init__(self, space: MemorySpace | None):
        self.space = space
        self.live: list[Allocation] = []

    def alloc(self, label: str, nbytes: int) -> Allocation | None:
        if self.space is None:
            return None
        a = self.space.allocate(label, int(nbytes))
        self.live.append(a)
        return a

    def free(self, alloc: Allocation | None) -> None:
        if self.space is not None and alloc is not None:
            self.space.free(alloc)
            self.live.remove(alloc)


def standard_preprocess(dataset: SpatioTemporalDataset,
                        horizon: int | None = None,
                        *,
                        dtype=np.float64,
                        ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
                        stat_mode: str = "raw",
                        add_time_feature: bool | None = None,
                        space: MemorySpace | None = None) -> StandardPreprocessed:
    """Run Algorithm 1: augment, window, stack, standardize, split.

    Parameters
    ----------
    horizon: window/forecast length; defaults to the dataset spec's value.
    stat_mode: ``"raw"`` (default, index-batching-equivalent) or
        ``"stacked"`` (literal Algorithm 1 statistics).
    add_time_feature: append the time-of-day channel (stage 1 of Fig. 3);
        defaults to True for traffic datasets.
    space: optional memory space charged for every materialisation.
    """
    if stat_mode not in ("raw", "stacked"):
        raise ValueError(f"stat_mode must be 'raw' or 'stacked', got {stat_mode!r}")
    h = dataset.spec.horizon if horizon is None else int(horizon)
    if add_time_feature is None:
        add_time_feature = dataset.spec.domain == "traffic"
    ch = _Charger(space)

    # Stages 0/1: raw file + time-of-day augmentation.
    raw_a = ch.alloc("raw", dataset.signals.nbytes)
    if add_time_feature:
        data = dataset.with_time_feature().astype(dtype, copy=False)
    else:
        data = np.array(dataset.signals, dtype=dtype)
    aug_a = ch.alloc("augmented", data.nbytes)

    entries = data.shape[0]
    n_snap = num_snapshots(entries, h)
    starts = window_starts(entries, h)
    snap_bytes = n_snap * h * int(np.prod(data.shape[1:])) * data.dtype.itemsize

    # Stage 2: one loop appends x and y window copies to two lists.
    x_list_a = ch.alloc("x-window-list", snap_bytes)
    y_list_a = ch.alloc("y-window-list", snap_bytes)
    x_windows = [data[s: s + h].copy() for s in starts]
    y_windows = [data[s + h: s + 2 * h].copy() for s in starts]

    # Stage 2b: stacking (list alive while its stack materialises).
    x_stack_a = ch.alloc("x-stacked", snap_bytes)
    x = np.stack(x_windows, axis=0)
    x_windows = None
    ch.free(x_list_a)
    y_stack_a = ch.alloc("y-stacked", snap_bytes)
    y = np.stack(y_windows, axis=0)
    y_windows = None
    ch.free(y_list_a)

    # Standardization statistics from the training portion.
    train_end, val_end = split_bounds(n_snap, ratios)
    scaler = StandardScaler()
    if stat_mode == "stacked":
        scaler.fit(x[:train_end])
    else:
        scaler.fit(data[: train_end - 1 + h])

    # `(x - mu) / sigma` allocates a subtraction temporary plus the result.
    tmp_a = ch.alloc("std-temp", snap_bytes)
    x_std_a = ch.alloc("x-standardized", snap_bytes)
    x = scaler.transform(x)
    ch.free(tmp_a)
    ch.free(x_stack_a)
    tmp_a = ch.alloc("std-temp", snap_bytes)
    y_std_a = ch.alloc("y-standardized", snap_bytes)
    y = scaler.transform(y)
    ch.free(tmp_a)
    ch.free(y_stack_a)
    ch.free(raw_a)
    ch.free(aug_a)

    # Stage 3: materialised split copies (the reference writes npz files
    # per split and reloads them).
    splits_a = ch.alloc("split-copies", 2 * snap_bytes)
    parts = {
        "x_train": np.ascontiguousarray(x[:train_end]),
        "y_train": np.ascontiguousarray(y[:train_end]),
        "x_val": np.ascontiguousarray(x[train_end:val_end]),
        "y_val": np.ascontiguousarray(y[train_end:val_end]),
        "x_test": np.ascontiguousarray(x[val_end:]),
        "y_test": np.ascontiguousarray(y[val_end:]),
    }
    ch.free(x_std_a)
    ch.free(y_std_a)

    return StandardPreprocessed(scaler=scaler, horizon=h,
                                allocations=list(ch.live), **parts)
