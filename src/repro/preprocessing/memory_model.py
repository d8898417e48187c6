"""Analytic and mechanistic memory models for both pipelines.

Two layers:

1. **Closed forms** — the paper's eq. (1) (standard preprocessing size) and
   eq. (2) (index-batching size), in bytes, plus the stage-by-stage growth
   of Figure 3.  These reproduce Table 1 exactly from the catalog shapes.
2. **Mechanistic simulators** — replay the *allocation sequence* of the real
   pipelines (`standard_preprocess` / `IndexDataset.from_dataset`) against a
   :class:`~repro.hardware.memory.MemorySpace` using full-scale shapes but
   without touching real data.  A unit test pins the simulators to the real
   pipelines by comparing event logs on small inputs; the experiment harness
   then runs them at PeMS scale to regenerate Figures 2/6 and the OOM
   behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.catalog import DatasetSpec
from repro.hardware.memory import Allocation, MemorySpace
from repro.preprocessing.windows import num_snapshots

INDEX_DTYPE_BYTES = 8  # int64 window-start indices


def standard_preprocessed_nbytes(entries: int, nodes: int, features: int,
                                 horizon: int, dtype=np.float64) -> int:
    """Paper eq. (1): bytes of the stacked ``x`` and ``y`` arrays."""
    item = np.dtype(dtype).itemsize
    return 2 * num_snapshots(entries, horizon) * horizon * nodes * features * item


def index_nbytes(entries: int, nodes: int, features: int, horizon: int,
                 dtype=np.float64) -> int:
    """Paper eq. (2): bytes of one data copy plus the index array."""
    item = np.dtype(dtype).itemsize
    return (entries * nodes * features * item
            + num_snapshots(entries, horizon) * INDEX_DTYPE_BYTES)


def table1_sizes(spec: DatasetSpec, dtype=np.float64) -> tuple[int, int]:
    """(size before, size after) preprocessing for a catalog dataset.

    "Before" is the raw file tensor; "after" is eq. (1) with the training
    feature count (time-of-day included for traffic data).
    """
    before = spec.raw_nbytes(dtype)
    after = standard_preprocessed_nbytes(spec.num_entries, spec.num_nodes,
                                         spec.train_features, spec.horizon,
                                         dtype)
    return before, after


def figure3_stages(spec: DatasetSpec, dtype=np.float64) -> dict[str, int]:
    """The data-growth stages of Figure 3 (shown for PeMS-All-LA).

    Stage 1: time-of-day appended as an extra channel.
    Stage 2: sliding-window analysis materialises the ``x`` windows.
    Stage 3: the matching ``y`` windows double it (train/val/test split is
    by slicing and adds no bytes).
    """
    item = np.dtype(dtype).itemsize
    raw = spec.raw_nbytes(dtype)
    augmented = spec.num_entries * spec.num_nodes * spec.train_features * item
    n_snap = num_snapshots(spec.num_entries, spec.horizon)
    swa = n_snap * spec.horizon * spec.num_nodes * spec.train_features * item
    xy = 2 * swa
    return {"raw": raw, "stage1_time_feature": augmented,
            "stage2_swa": swa, "stage3_xy_split": xy}


# ---------------------------------------------------------------------------
# Mechanistic pipeline simulators
# ---------------------------------------------------------------------------
@dataclass
class PipelineFootprint:
    """Result of a simulated pipeline: peak bytes and what stays resident."""

    peak: int
    resident: int
    live: list[Allocation]


def _shape_bytes(spec: DatasetSpec, features: int, dtype) -> int:
    return spec.num_entries * spec.num_nodes * features * np.dtype(dtype).itemsize


def simulate_standard_pipeline(spec: DatasetSpec, space: MemorySpace, *,
                               horizon: int | None = None,
                               dtype=np.float64,
                               add_time_feature: bool | None = None,
                               keep_stacked: bool = False
                               ) -> PipelineFootprint:
    """Replay ``standard_preprocess``'s allocation sequence at full scale.

    ``keep_stacked`` leaves the standardized x/y arrays live alongside the
    split copies (the original DCRNN workflow's behaviour, where the
    preprocessing script's arrays and the training loader's reloaded splits
    coexist).
    """
    h = spec.horizon if horizon is None else horizon
    if add_time_feature is None:
        add_time_feature = spec.domain == "traffic"
    feats = spec.train_features if add_time_feature else spec.raw_features
    item = np.dtype(dtype).itemsize

    raw = space.allocate("raw", _shape_bytes(spec, spec.raw_features, dtype))
    aug = space.allocate("augmented", _shape_bytes(spec, feats, dtype))
    snap_bytes = num_snapshots(spec.num_entries, h) * h * spec.num_nodes * feats * item

    x_list = space.allocate("x-window-list", snap_bytes)
    y_list = space.allocate("y-window-list", snap_bytes)
    x_stack = space.allocate("x-stacked", snap_bytes)
    space.free(x_list)
    y_stack = space.allocate("y-stacked", snap_bytes)
    space.free(y_list)

    tmp = space.allocate("std-temp", snap_bytes)
    x_std = space.allocate("x-standardized", snap_bytes)
    space.free(tmp)
    space.free(x_stack)
    tmp = space.allocate("std-temp", snap_bytes)
    y_std = space.allocate("y-standardized", snap_bytes)
    space.free(tmp)
    space.free(y_stack)
    space.free(raw)
    space.free(aug)

    splits = space.allocate("split-copies", 2 * snap_bytes)
    live = [splits]
    if keep_stacked:
        live = [x_std, y_std, splits]
    else:
        space.free(x_std)
        space.free(y_std)
    return PipelineFootprint(peak=space.peak, resident=space.in_use, live=live)


def simulate_index_pipeline(spec: DatasetSpec, space: MemorySpace, *,
                            horizon: int | None = None,
                            dtype=np.float64,
                            add_time_feature: bool | None = None
                            ) -> PipelineFootprint:
    """Replay the sequence ``IndexDataset.from_dataset`` charges: the
    published PGT-I index pipeline (Figure 6 / Table 4), not what that
    function allocates (see :mod:`repro.hardware.memory`)."""
    h = spec.horizon if horizon is None else horizon
    if add_time_feature is None:
        add_time_feature = spec.domain == "traffic"
    feats = spec.train_features if add_time_feature else spec.raw_features

    raw = space.allocate("raw", _shape_bytes(spec, spec.raw_features, dtype))
    aug = space.allocate("augmented", _shape_bytes(spec, feats, dtype))
    idx = space.allocate("start-indices",
                         num_snapshots(spec.num_entries, h) * INDEX_DTYPE_BYTES)
    scratch = space.allocate("standardize-scratch",
                             _shape_bytes(spec, feats, dtype))
    space.free(scratch)
    space.free(raw)
    return PipelineFootprint(peak=space.peak, resident=space.in_use,
                             live=[aug, idx])


def simulate_gpu_index_pipeline(spec: DatasetSpec, host: MemorySpace,
                                gpu: MemorySpace, *,
                                horizon: int | None = None,
                                dtype=np.float64,
                                add_time_feature: bool | None = None
                                ) -> tuple[PipelineFootprint, PipelineFootprint]:
    """GPU-index-batching (§4.1): one host->device copy, then on-device prep.

    Host holds the raw file plus a staging copy for the transfer; the GPU
    holds the raw copy, builds the augmented array, standardizes in place,
    and keeps the data resident for the whole training run.
    Returns (host footprint, gpu footprint).
    """
    h = spec.horizon if horizon is None else horizon
    if add_time_feature is None:
        add_time_feature = spec.domain == "traffic"
    feats = spec.train_features if add_time_feature else spec.raw_features
    raw_bytes = _shape_bytes(spec, spec.raw_features, dtype)

    raw = host.allocate("raw", raw_bytes)
    staging = host.allocate("pinned-staging", raw_bytes)
    raw_dev = gpu.allocate("raw-device", raw_bytes)
    host.free(staging)
    host.free(raw)

    aug = gpu.allocate("augmented-device", _shape_bytes(spec, feats, dtype))
    gpu.free(raw_dev)
    idx = gpu.allocate("start-indices",
                       num_snapshots(spec.num_entries, h) * INDEX_DTYPE_BYTES)
    scratch = gpu.allocate("standardize-scratch", _shape_bytes(spec, feats, dtype))
    gpu.free(scratch)
    return (PipelineFootprint(peak=host.peak, resident=host.in_use, live=[]),
            PipelineFootprint(peak=gpu.peak, resident=gpu.in_use, live=[aug, idx]))


def simulate_dcrnn_loader(spec: DatasetSpec, space: MemorySpace, *,
                          horizon: int | None = None,
                          dtype=np.float64, batch_size: int = 32
                          ) -> PipelineFootprint:
    """The original DCRNN implementation's loader on top of the standard
    pipeline.

    Li et al.'s ``DataLoader`` pads the dataset to a multiple of the batch
    size and keeps the padded copies *in addition to* the originals — the
    paper identifies this as the source of DCRNN's extra ~110 GB on
    PeMS-All-LA (Table 2).  The preprocessing arrays also stay referenced
    alongside the reloaded splits (``keep_stacked=True``).
    """
    h = spec.horizon if horizon is None else horizon
    foot = simulate_standard_pipeline(spec, space, horizon=h, dtype=dtype,
                                      keep_stacked=True)
    n_snap = num_snapshots(spec.num_entries, h)
    pad = (-n_snap) % batch_size
    item = np.dtype(dtype).itemsize
    padded = (n_snap + pad) * h * spec.num_nodes * spec.train_features * item
    x_pad = space.allocate("x-padded-copy", padded)
    y_pad = space.allocate("y-padded-copy", padded)
    return PipelineFootprint(peak=space.peak, resident=space.in_use,
                             live=foot.live + [x_pad, y_pad])
