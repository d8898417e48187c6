"""Samplers and batch loaders for standard and index-batched datasets."""

from repro.batching.samplers import (
    BatchShuffleSampler,
    GlobalShuffleSampler,
    LocalShuffleSampler,
    partition_contiguous,
)
from repro.batching.loaders import IndexBatchLoader, StandardBatchLoader
from repro.batching.protocols import BatchSource, ensure_batch_source

__all__ = [
    "GlobalShuffleSampler",
    "LocalShuffleSampler",
    "BatchShuffleSampler",
    "partition_contiguous",
    "IndexBatchLoader",
    "StandardBatchLoader",
    "BatchSource",
    "ensure_batch_source",
]
