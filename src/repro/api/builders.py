"""Default registry entries: the paper's models, batching modes, datasets
and optimizers, wired as uniform builder functions.

Model builders receive a :class:`ModelContext` (graph, diffusion supports,
horizon, feature count, width, seed) and return a ready
:class:`~repro.models.base.STModel`.  Batching builders turn a raw dataset
into a :class:`LoaderBundle` of train/val/test :class:`BatchSource`\\ s plus
the fitted scaler — the six-step wiring every experiment module used to
repeat by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.registry import BATCHINGS, DATASETS, MODELS, OPTIMIZERS
from repro.batching.loaders import IndexBatchLoader, StandardBatchLoader
from repro.datasets.base import SpatioTemporalDataset
from repro.datasets.catalog import CATALOG
from repro.datasets.loaders import load_dataset
from repro.hardware.memory import MemorySpace
from repro.models import A3TGCN, DCRNN, PGTDCRNN, STLLM, TGCN
from repro.optim import Adam, SGD
from repro.preprocessing.index_batching import IndexDataset
from repro.preprocessing.scaler import StandardScaler
from repro.preprocessing.standard import standard_preprocess


# ---------------------------------------------------------------------------
# Contexts the builders consume
# ---------------------------------------------------------------------------
#: Diffusion supports memo, keyed by graph identity.  Each value keeps a
#: strong reference to its graph, so an id can never be recycled while its
#: entry is alive; bounded FIFO like the runner's dataset cache.
_SUPPORTS_CACHE: dict[int, tuple[Any, list]] = {}
_SUPPORTS_CACHE_MAX = 8


def _supports_for(graph) -> list:
    entry = _SUPPORTS_CACHE.get(id(graph))
    if entry is not None and entry[0] is graph:
        return entry[1]
    from repro.graph.supports import dual_random_walk_supports
    if len(_SUPPORTS_CACHE) >= _SUPPORTS_CACHE_MAX:
        _SUPPORTS_CACHE.pop(next(iter(_SUPPORTS_CACHE)))
    supports = dual_random_walk_supports(graph.weights)
    _SUPPORTS_CACHE[id(graph)] = (graph, supports)
    return supports


@dataclass
class ModelContext:
    """Everything a model builder may need, derived from spec + dataset.

    Diffusion supports are computed on first access — only the
    DCRNN-family builders need them, and they are O(nodes²) to build —
    and memoized per graph, so sweep points over one cached dataset
    share a single supports construction.
    """

    graph: Any                       # repro.graph.adjacency.SensorGraph
    horizon: int
    in_features: int
    hidden_dim: int
    seed: int | str
    _supports: list | None = None

    @property
    def supports(self) -> list:
        """Dual random-walk diffusion supports for ``graph`` (cached)."""
        if self._supports is None:
            self._supports = _supports_for(self.graph)
        return self._supports


@dataclass
class LoaderBundle:
    """Train/val/test batch sources plus the scaler that standardized them."""

    train: Any
    val: Any
    test: Any
    scaler: StandardScaler


def default_in_features(dataset: SpatioTemporalDataset) -> int:
    """Model input width for a dataset: raw channels plus the time-of-day
    channel traffic preprocessing appends (paper Algorithm 1, step 1)."""
    extra = 1 if dataset.spec.domain == "traffic" else 0
    return dataset.raw_features + extra


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------
@MODELS.register("dcrnn")
def _build_dcrnn(ctx: ModelContext):
    return DCRNN(ctx.supports, ctx.horizon, ctx.in_features,
                 hidden_dim=ctx.hidden_dim, num_layers=2, seed=ctx.seed)


@MODELS.register("pgt-dcrnn")
def _build_pgt_dcrnn(ctx: ModelContext):
    return PGTDCRNN(ctx.supports, ctx.horizon, ctx.in_features,
                    hidden_dim=ctx.hidden_dim, seed=ctx.seed)


@MODELS.register("tgcn")
def _build_tgcn(ctx: ModelContext):
    return TGCN(ctx.graph.weights, ctx.horizon, ctx.in_features,
                hidden_dim=ctx.hidden_dim, seed=ctx.seed)


@MODELS.register("a3tgcn")
def _build_a3tgcn(ctx: ModelContext):
    return A3TGCN(ctx.graph.weights, ctx.horizon, ctx.in_features,
                  hidden_dim=ctx.hidden_dim, seed=ctx.seed)


@MODELS.register("st-llm")
def _build_stllm(ctx: ModelContext):
    return STLLM(ctx.graph.num_nodes, ctx.horizon, ctx.in_features,
                 dim=4 * ctx.hidden_dim, num_heads=2, num_blocks=2,
                 frozen_blocks=1, seed=ctx.seed)


# ---------------------------------------------------------------------------
# Batching modes
# ---------------------------------------------------------------------------
@BATCHINGS.register("base")
def _build_standard_loaders(ds: SpatioTemporalDataset, horizon: int,
                            batch_size: int,
                            space: MemorySpace | None = None) -> LoaderBundle:
    """The memory-hungry baseline: fully materialised window stacks."""
    pre = standard_preprocess(ds, horizon=horizon, space=space)
    return LoaderBundle(
        train=StandardBatchLoader(pre, "train", batch_size),
        val=StandardBatchLoader(pre, "val", batch_size),
        test=StandardBatchLoader(pre, "test", batch_size),
        scaler=pre.scaler)


@BATCHINGS.register("index")
def _build_index_loaders(ds: SpatioTemporalDataset, horizon: int,
                         batch_size: int,
                         space: MemorySpace | None = None) -> LoaderBundle:
    """Index-batching: one data copy + window-start indices (paper §4.1).

    The standardized copy is stored at training dtype (float32), so every
    gather lands directly in the loaders' reusable batch buffers with no
    per-batch cast and the resident data footprint halves.
    """
    idx = IndexDataset.from_dataset(ds, horizon=horizon, space=space,
                                    store_dtype=np.float32)
    return LoaderBundle(
        train=IndexBatchLoader(idx, "train", batch_size),
        val=IndexBatchLoader(idx, "val", batch_size),
        test=IndexBatchLoader(idx, "test", batch_size),
        scaler=idx.scaler)


@BATCHINGS.register("index-f16")
def _build_index_f16_loaders(ds: SpatioTemporalDataset, horizon: int,
                             batch_size: int,
                             space: MemorySpace | None = None) -> LoaderBundle:
    """Index-batching with mixed-precision storage (float16 store).

    The standardized copy is held in float16 — half the ``"index"`` mode's
    resident footprint, compounding the paper's headline memory win — while
    compute stays float32: each gather lands in the loader's float16 block
    and is cast once into its float32 batch buffer, so the model sees
    float32 everywhere and only storage precision (and hence the values'
    ~3 decimal digits) changes.
    """
    idx = IndexDataset.from_dataset(ds, horizon=horizon, space=space,
                                    store_dtype="float16")
    return LoaderBundle(
        train=IndexBatchLoader(idx, "train", batch_size),
        val=IndexBatchLoader(idx, "val", batch_size),
        test=IndexBatchLoader(idx, "test", batch_size),
        scaler=idx.scaler)


# ---------------------------------------------------------------------------
# Datasets: every catalog entry, served by its synthetic generator
# ---------------------------------------------------------------------------
def _dataset_builder(name: str):
    def build(*, nodes: int | None = None, entries: int | None = None,
              seed: int | str = 0) -> SpatioTemporalDataset:
        return load_dataset(name, nodes=nodes, entries=entries, seed=seed)
    build.__name__ = f"load_{name.replace('-', '_')}"
    return build


for _name in CATALOG:
    DATASETS.register(_name, _dataset_builder(_name))


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------
@OPTIMIZERS.register("adam")
def _build_adam(params, lr: float):
    return Adam(params, lr=lr)


@OPTIMIZERS.register("sgd")
def _build_sgd(params, lr: float):
    return SGD(params, lr=lr, momentum=0.9)
