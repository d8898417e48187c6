"""Index-batching (paper §4.1): the memory-efficient preprocessing pipeline.

Instead of materialising every overlapping window, index-batching keeps

- one standardized copy of the augmented data ``[entries, nodes, features]``
- an ``int64`` array of window-start indices (the "graph IDs" of Fig. 4)

and reconstructs any snapshot at runtime as a pair of NumPy **views**::

    x = data[start : start + horizon]
    y = data[start + horizon : start + 2 * horizon]

Views share the base array's memory, so snapshot construction allocates
nothing; only batch *gathering* (fancy-indexing a set of starts into a
contiguous ``[batch, horizon, nodes, features]`` block) copies, and that
copy is the batch the model consumes anyway.

Set-up writes the standardized copy once, block by block, straight at its
storage dtype (:meth:`IndexDataset.from_dataset`): no augmented float64
array, no full-size ``data - mean`` temporary and no ``astype`` copy exist
at any point, so the process peaks at resident + blocks when the dataset
is file-backed (:func:`repro.datasets.io.load_dataset_file`: each block is
read from the file as it is needed) and at raw + resident + blocks when it
is in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import SpatioTemporalDataset
from repro.hardware.memory import Allocation, MemorySpace
from repro.kernels.precision import resolve_store_dtype
from repro.preprocessing.scaler import StandardScaler, block_rows
from repro.preprocessing.windows import num_snapshots, split_bounds, window_starts
from repro.utils.errors import ShapeError


@dataclass
class IndexDataset:
    """A preprocessed dataset in index-batching form.

    ``data`` is the single standardized array; ``starts`` holds every valid
    window start; ``train_end``/``val_end`` delimit the splits over
    ``starts``.  Use :meth:`snapshot` for zero-copy access and
    :meth:`gather` to assemble training batches.
    """

    data: np.ndarray
    starts: np.ndarray
    horizon: int
    scaler: StandardScaler
    train_end: int
    val_end: int
    allocations: list[Allocation] = field(default_factory=list)
    _offsets: np.ndarray | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: SpatioTemporalDataset,
                     horizon: int | None = None, *,
                     dtype=np.float64,
                     store_dtype=None,
                     ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
                     add_time_feature: bool | None = None,
                     space: MemorySpace | None = None) -> "IndexDataset":
        """Build from a raw dataset: standardize in blocks, write once.

        The augmented float64 array is never materialised.  A row-block
        reader fills one small ``dtype`` block from ``dataset.signals``
        plus each entry's time-of-day value (the values of
        ``with_time_feature()``); the scaler is fitted over those blocks
        (two passes, see :meth:`StandardScaler.fit_entries`), and a third pass
        standardizes each block in ``dtype`` and assigns it into the final
        array, allocated once at the storage dtype.  ``signals`` is only
        ever read as ``signals[first:last]``, so the process's real set-up
        peak is resident + blocks when the dataset is file-backed and raw +
        resident + blocks when it is in memory; it is what the benchmark's
        ``preprocessing.traced_peak_mb`` / ``peak_rss_mb`` measure.

        The charges against ``space`` are a *model*, not a record of those
        allocations: they replay the published PGT-I pipeline (raw +
        augmented copy + one standardization scratch copy, then an
        ``astype`` to the storage dtype), which is the sequence
        ``simulate_index_pipeline`` reproduces for Figure 6 / Table 4 and
        is far above what this function now allocates.  Compare the
        standard pipeline, whose peak includes two full window stacks
        (``2 * horizon`` larger).

        ``store_dtype`` is the dtype of the stored array (statistics and
        standardization still run in ``dtype``).  Passing ``np.float32``
        stores the data at training dtype, so batch gathering feeds the
        model directly with no per-batch cast and the resident copy
        halves; the stored values are exactly the float64-standardized
        values rounded once to float32, i.e. bitwise what the loaders used
        to produce per batch.  Mixed-precision storage goes one step
        further: ``store_dtype="float16"`` (or ``"bfloat16"`` with the
        optional ml_dtypes package) halves the resident copy again while
        the loaders keep computing in float32 — every gather lands in the
        loader's float32 ``out=`` buffer, so only storage precision
        changes, never model math.
        """
        h = dataset.spec.horizon if horizon is None else int(horizon)
        if add_time_feature is None:
            add_time_feature = dataset.spec.domain == "traffic"
        live: list[Allocation] = []

        def charge(label: str, nbytes: int) -> Allocation | None:
            if space is None:
                return None
            alloc = space.allocate(label, nbytes)
            live.append(alloc)
            return alloc

        def uncharge(alloc: Allocation | None) -> None:
            if space is not None and alloc is not None:
                space.free(alloc)
                live.remove(alloc)

        signals = dataset.signals
        entries, nodes, raw_features = signals.shape
        features = raw_features + bool(add_time_feature)
        dtype = np.dtype(dtype)
        store_dtype = resolve_store_dtype(store_dtype)
        if store_dtype is None:
            store_dtype = dtype
        augmented_nbytes = entries * nodes * features * dtype.itemsize

        raw_alloc = charge("raw", signals.nbytes)
        aug_alloc = charge("augmented", augmented_nbytes)
        n_snap = num_snapshots(entries, h)
        starts = window_starts(entries, h)
        idx_alloc = charge("start-indices", starts.nbytes)
        train_end, val_end = split_bounds(n_snap, ratios)

        # Same values as with_time_feature(): time-of-day is cast through
        # the signals' dtype before it reaches `dtype`.
        tod = (dataset.time_of_day().astype(signals.dtype)
               if add_time_feature else None)
        block_entries = max(1, block_rows(features) // nodes)
        # fit_entries reads block-sized runs of rows, which can straddle two
        # more entries.
        block = np.empty((block_entries + 2, nodes, features), dtype)

        def read(first: int, last: int) -> np.ndarray:
            """Entries ``[first, last)`` of the augmented array, as a view
            of ``block``."""
            blk = block[: last - first]
            blk[..., :raw_features] = signals[first:last]
            if tod is not None:
                blk[..., raw_features] = tod[first:last, None]
            return blk

        scaler = StandardScaler().fit_entries(
            read, (min(entries, train_end - 1 + h), nodes, features))
        # The ledger's transient spike is the one the paper's Figure 6
        # shows (~46 GB for PeMS, settling at the single ~18 GB copy): a
        # full scratch copy while raw is still referenced.
        scratch = charge("standardize-scratch", augmented_nbytes)
        data = np.empty((entries, nodes, features), store_dtype)
        for first in range(0, entries, block_entries):
            blk = read(first, min(first + block_entries, entries))
            # Standardize in `dtype`, round once on assignment.
            data[first: first + block_entries] = scaler.transform(blk, out=blk)
        uncharge(scratch)
        uncharge(raw_alloc)
        if store_dtype != dtype:
            store_alloc = charge("store-cast", data.nbytes)
            uncharge(aug_alloc)
            aug_alloc = store_alloc

        allocations = [a for a in (aug_alloc, idx_alloc) if a is not None]
        for a in allocations:
            live.remove(a)
        return cls(data=data, starts=starts, horizon=h, scaler=scaler,
                   train_end=train_end, val_end=val_end,
                   allocations=allocations)

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ShapeError(
                f"data must be [entries, nodes, features], got {self.data.shape}")
        if not 0 <= self.train_end <= self.val_end <= len(self.starts):
            raise ShapeError("split bounds out of order")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def num_snapshots(self) -> int:
        return len(self.starts)

    @property
    def num_nodes(self) -> int:
        return self.data.shape[1]

    @property
    def num_features(self) -> int:
        return self.data.shape[2]

    def split_starts(self, split: str) -> np.ndarray:
        """Window starts belonging to a split (a view of ``starts``)."""
        if split == "train":
            return self.starts[: self.train_end]
        if split == "val":
            return self.starts[self.train_end: self.val_end]
        if split == "test":
            return self.starts[self.val_end:]
        raise KeyError(f"unknown split {split!r}")

    def snapshot(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct snapshot ``start`` as two zero-copy views."""
        h = self.horizon
        if not 0 <= start < self.num_snapshots:
            raise IndexError(f"start {start} out of range [0, {self.num_snapshots})")
        x = self.data[start: start + h]
        y = self.data[start + h: start + 2 * h]
        return x, y

    def gather(self, starts: np.ndarray,
               space: MemorySpace | None = None,
               out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Assemble a batch ``[len(starts), horizon, nodes, features]``.

        This is the only copying step in index-batching; the copy is the
        batch tensor itself.  The ``x`` and ``y`` windows of one start
        overlap end to end, so a single fancy-index of width
        ``2 * horizon`` fills both and the returned pair are views of that
        block.  When ``out`` (shape ``[len(starts), 2 * horizon, nodes,
        features]``, data dtype) is given, the gather writes into it and
        allocates nothing — loaders pass a persistent buffer here every
        step.  When ``space`` is given, the batch bytes are charged (and
        freed: the batch lives only for the step, so only peak counts).
        """
        starts = np.asarray(starts)
        h = self.horizon
        # Fancy indexing wraps a negative start silently and np.take below
        # clips, so neither path may see an out-of-range start.
        if len(starts) and (int(starts.min()) < 0 or
                            int(starts.max()) + 2 * h > len(self.data)):
            raise IndexError("gather starts out of range")
        if self._offsets is None or len(self._offsets) != 2 * h:
            self._offsets = np.arange(2 * h)
        idx = starts[:, None] + self._offsets[None, :]
        if out is None:
            block = self.data[idx]
        else:
            expected = (len(starts), 2 * h) + self.data.shape[1:]
            if out.shape != expected or out.dtype != self.data.dtype:
                raise ShapeError(
                    f"gather out buffer must be {expected} {self.data.dtype}, "
                    f"got {out.shape} {out.dtype}")
            # mode="clip" skips np.take's internal bounce buffer; the
            # bounds check above keeps out-of-range starts loud.
            np.take(self.data, idx.reshape(-1), axis=0,
                    out=out.reshape((-1,) + self.data.shape[1:]), mode="clip")
            block = out
        x = block[:, :h]
        y = block[:, h:]
        if space is not None:
            alloc = space.allocate("batch", x.nbytes + y.nbytes)
            space.free(alloc)  # batch lives only for the step; charge peak
        return x, y

    def materialize_split(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        """Materialise an entire split (testing/verification only)."""
        return self.gather(self.split_starts(split))

    @property
    def resident_nbytes(self) -> int:
        """Bytes held long-term: the data array plus the index array."""
        return self.data.nbytes + self.starts.nbytes

    def release(self, space: MemorySpace) -> None:
        for alloc in self.allocations:
            space.free(alloc)
        self.allocations.clear()
