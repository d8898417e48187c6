"""Batch loaders bridging preprocessed datasets and training loops.

Both loaders yield ``(x, y)`` NumPy batches of shape
``[batch, horizon, nodes, features]``; the difference is where the bytes
come from:

- :class:`StandardBatchLoader` slices the fully-materialised window stacks
  of the standard pipeline.
- :class:`IndexBatchLoader` gathers batches on demand from the single data
  copy of an :class:`~repro.preprocessing.index_batching.IndexDataset`.

Both satisfy the :class:`~repro.batching.protocols.BatchSource` protocol:
``len(loader)`` equals the number of full batches :meth:`batches` yields,
and impossible splits (empty, or smaller than one batch) are rejected at
construction instead of silently iterating zero times.

**Buffer reuse.**  Full-size batches are written into one persistent
buffer per loader and returned as (views of) that buffer, so the steady
training loop gathers without allocating.  Consequently a batch is only
valid until the next ``batch_at``/``batches`` call on the same loader —
exactly how the training loops consume them; ``.copy()`` a batch to keep
it.  Odd-sized requests (DDP microbatches, whole-partition evaluation)
always take the allocating path.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.preprocessing.index_batching import IndexDataset
from repro.preprocessing.standard import StandardPreprocessed
from repro.utils.errors import ShapeError


def _check_split(split: str, num_snapshots: int, batch_size: int) -> int:
    """Validate that a split can serve at least one full batch."""
    batch_size = int(batch_size)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if num_snapshots == 0:
        raise ShapeError(f"split {split!r} is empty")
    if num_snapshots < batch_size:
        raise ShapeError(
            f"split {split!r} has {num_snapshots} snapshots, fewer than "
            f"batch_size {batch_size}: no full batch can be formed (shrink "
            f"the batch size or enlarge the dataset)")
    return batch_size


class StandardBatchLoader:
    """Iterate over a materialised split of the standard pipeline.

    The split's window stacks are cast to the training dtype once at
    construction, so per-batch assembly is a pure ``np.take`` into the
    loader's persistent buffers (no cast, no allocation).
    """

    def __init__(self, pre: StandardPreprocessed, split: str, batch_size: int,
                 *, dtype=np.float32):
        x, y = pre.split(split)
        self.batch_size = _check_split(split, len(x), batch_size)
        self.dtype = np.dtype(dtype)
        self.x = np.ascontiguousarray(x, dtype=self.dtype)
        self.y = np.ascontiguousarray(y, dtype=self.dtype)
        self._xb: np.ndarray | None = None
        self._yb: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.x) // self.batch_size

    @property
    def num_snapshots(self) -> int:
        return len(self.x)

    def _take(self, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(sel) != self.batch_size:
            return self.x[sel], self.y[sel]
        n = len(self.x)
        if len(sel) and (int(sel.min()) < -n or int(sel.max()) >= n):
            raise IndexError(f"batch indices out of range for {n} snapshots")
        if self._xb is None:
            self._xb = np.empty((self.batch_size,) + self.x.shape[1:],
                                self.dtype)
            self._yb = np.empty((self.batch_size,) + self.y.shape[1:],
                                self.dtype)
        # mode="wrap" skips np.take's internal bounce buffer and gives
        # negative indices standard meaning; the bounds check above keeps
        # genuinely out-of-range indices loud.
        np.take(self.x, sel, axis=0, out=self._xb, mode="wrap")
        np.take(self.y, sel, axis=0, out=self._yb, mode="wrap")
        return self._xb, self._yb

    def batches(self, order: np.ndarray | None = None
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield batches, optionally in a sampler-provided order."""
        idx = np.arange(len(self.x)) if order is None else np.asarray(order)
        bs = self.batch_size
        for i in range(0, len(idx) - bs + 1, bs):
            yield self._take(idx[i: i + bs])

    def batch_at(self, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._take(np.asarray(sel))


class IndexBatchLoader:
    """Iterate over an :class:`IndexDataset` split via runtime gathering.

    Full-size batches gather into one persistent ``[batch, 2*horizon,
    nodes, features]`` block (a single fancy-index; ``x``/``y`` are the
    two halves as views).  When the dataset stores data at the training
    dtype the views are returned directly; otherwise they are cast into a
    second persistent buffer, still allocation-free per step.
    """

    def __init__(self, ds: IndexDataset, split: str, batch_size: int,
                 *, dtype=np.float32):
        self.ds = ds
        self.split = split
        self.starts = ds.split_starts(split)
        self.batch_size = _check_split(split, len(self.starts), batch_size)
        self.dtype = np.dtype(dtype)
        self._block: np.ndarray | None = None   # gather target, data dtype
        self._cast: np.ndarray | None = None    # training-dtype copy if needed
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.starts) // self.batch_size

    @property
    def num_snapshots(self) -> int:
        return len(self.starts)

    def _gather(self, sel_starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(sel_starts) != self.batch_size:
            x, y = self.ds.gather(sel_starts)
            return (x.astype(self.dtype, copy=False),
                    y.astype(self.dtype, copy=False))
        if self._block is None:
            h = self.ds.horizon
            shape = (self.batch_size, 2 * h) + self.ds.data.shape[1:]
            self._block = np.empty(shape, self.ds.data.dtype)
            out = self._block
            if self.ds.data.dtype != self.dtype:
                self._cast = np.empty(shape, self.dtype)
                out = self._cast
            self._x = out[:, :h]
            self._y = out[:, h:]
        self.ds.gather(sel_starts, out=self._block)
        if self._cast is not None:
            np.copyto(self._cast, self._block, casting="same_kind")
        return self._x, self._y

    def batches(self, order: np.ndarray | None = None
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield batches; ``order`` indexes into this split's snapshots."""
        idx = np.arange(len(self.starts)) if order is None else np.asarray(order)
        bs = self.batch_size
        for i in range(0, len(idx) - bs + 1, bs):
            yield self._gather(self.starts[idx[i: i + bs]])

    def batch_at(self, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch for split-local snapshot indices ``sel``."""
        return self._gather(self.starts[np.asarray(sel)])
