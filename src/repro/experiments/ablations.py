"""Ablations for the design choices and future-work items DESIGN.md lists.

1. **Prefetching** (paper §7: "implement prefetching ... could help reduce
   the communication overhead of the distributed strategies") — simulated
   at full PeMS scale: baseline DDP epoch time with and without overlapping
   the next batch's fetch behind compute.
2. **Graph partitioning + index-batching** (paper §7: "investigate the
   integration of index-batching with graph partitioning, potentially
   yielding further speedups at a potential cost to accuracy") — real
   training: a full-graph model vs independent per-partition models on the
   spectral partitions of the sensor graph.
3. **Shuffle strategy** sweep (global vs local vs batch) on one dataset —
   the design choice behind Table 5, extended with the *local* mode the
   paper cites as accuracy-harmful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.api.scales import Scale, get_scale
from repro.batching import IndexBatchLoader
from repro.datasets import get_spec, load_dataset
from repro.graph import dual_random_walk_supports, partition_graph
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.profiling import RunReport
from repro.training import Trainer
from repro.training.perfmodel import TrainingPerfModel, pgt_dcrnn_perf


# ---------------------------------------------------------------------------
# 1. Prefetch ablation (simulated)
# ---------------------------------------------------------------------------
@dataclass
class PrefetchPoint:
    gpus: int
    epoch_plain: float
    epoch_prefetch: float

    @property
    def saving(self) -> float:
        return 1.0 - self.epoch_prefetch / self.epoch_plain


def run_prefetch_ablation(gpu_counts: tuple[int, ...] = (4, 16, 64)
                          ) -> list[PrefetchPoint]:
    spec = get_spec("pems")
    pm = TrainingPerfModel(
        spec, pgt_dcrnn_perf(spec.num_nodes, spec.horizon,
                             spec.train_features), 64)
    out = []
    for gpus in gpu_counts:
        plain = pm.epoch_breakdown("baseline-ddp", gpus,
                                   include_validation=False)
        pref = pm.epoch_breakdown("baseline-ddp", gpus,
                                  include_validation=False, prefetch=True)
        out.append(PrefetchPoint(gpus, plain.total, pref.total))
    return out


# ---------------------------------------------------------------------------
# 2. Partitioning ablation (real)
# ---------------------------------------------------------------------------
@dataclass
class PartitioningResult:
    mode: str                 # "full-graph" or "partitioned-N"
    num_parts: int
    val_mae: float
    train_seconds: float
    model_flops_per_snapshot: float


def run_partitioning_ablation(scale: str | Scale = "tiny", seed: int = 0,
                              num_parts: int = 4) -> list[PartitioningResult]:
    scale = get_scale(scale)
    ds = load_dataset("pems-bay", nodes=scale.nodes, entries=scale.entries,
                      seed=seed)
    horizon = scale.horizon or ds.spec.horizon
    idx = IndexDataset.from_dataset(ds, horizon=horizon)
    results = []

    # Full graph baseline.
    supports = dual_random_walk_supports(ds.graph.weights)
    model = PGTDCRNN(supports, horizon, 2, hidden_dim=scale.hidden_dim,
                     seed=seed)
    trainer = Trainer(model, Adam(model.parameters(), lr=0.01),
                      IndexBatchLoader(idx, "train", scale.batch_size),
                      IndexBatchLoader(idx, "val", scale.batch_size),
                      scaler=idx.scaler, seed=seed)
    t0 = time.perf_counter()
    trainer.fit(scale.epochs)
    results.append(PartitioningResult(
        "full-graph", 1, trainer.best_val_mae(), time.perf_counter() - t0,
        model.flops_per_snapshot()))

    # Partitioned: independent models on disconnected subgraphs.  Cross-
    # partition edges are cut — the accuracy cost the paper warns about.
    assignment = partition_graph(ds.graph.weights, num_parts)
    maes, total_seconds, total_flops = [], 0.0, 0.0
    for part in range(num_parts):
        nodes = np.flatnonzero(assignment == part)
        if len(nodes) < 2:
            continue
        sub_weights = ds.graph.weights[nodes][:, nodes].tocsr()
        sub_supports = dual_random_walk_supports(sub_weights)
        sub_model = PGTDCRNN(sub_supports, horizon, 2,
                             hidden_dim=scale.hidden_dim,
                             seed=f"{seed}/part{part}")

        sub_idx = IndexDataset(
            data=np.ascontiguousarray(idx.data[:, nodes]),
            starts=idx.starts, horizon=idx.horizon, scaler=idx.scaler,
            train_end=idx.train_end, val_end=idx.val_end)
        sub_trainer = Trainer(
            sub_model, Adam(sub_model.parameters(), lr=0.01),
            IndexBatchLoader(sub_idx, "train", scale.batch_size),
            IndexBatchLoader(sub_idx, "val", scale.batch_size),
            scaler=idx.scaler, seed=seed)
        t0 = time.perf_counter()
        sub_trainer.fit(scale.epochs)
        total_seconds += time.perf_counter() - t0
        total_flops += sub_model.flops_per_snapshot()
        maes.append((sub_trainer.best_val_mae(), len(nodes)))
    weighted = sum(m * n for m, n in maes) / sum(n for _, n in maes)
    results.append(PartitioningResult(
        f"partitioned-{num_parts}", num_parts, weighted, total_seconds,
        total_flops))
    return results


# ---------------------------------------------------------------------------
# 3. Shuffle-strategy sweep (real)
# ---------------------------------------------------------------------------
@dataclass
class ShuffleSweepResult:
    shuffle: str
    val_mae: float


def run_shuffle_sweep(scale: str | Scale = "tiny", seed: int = 0,
                      world: int = 4) -> list[ShuffleSweepResult]:
    from repro import api
    from repro.api import RunSpec

    scale = get_scale(scale)
    out = []
    for shuffle in ("global", "local", "batch"):
        spec = RunSpec(dataset="pems-bay", model="pgt-dcrnn",
                       batching="index", scale=api.resolve_name(scale),
                       seed=seed, strategy="dist-index", world_size=world,
                       shuffle=shuffle)
        result = api.run(spec, scale=scale)
        out.append(ShuffleSweepResult(shuffle, result.best_val_mae))
    return out


def report(scale: str | Scale = "tiny") -> RunReport:
    rep = RunReport("Ablations (prefetch sim / partitioning real)",
                    ["Ablation", "Setting", "Metric", "Value"])
    for p in run_prefetch_ablation():
        rep.add_row("prefetch", f"{p.gpus} GPUs", "epoch saving",
                    f"{p.saving:.1%}")
    for r in run_partitioning_ablation(scale):
        rep.add_row("partitioning", r.mode, "val MAE", f"{r.val_mae:.4f}")
    for s in run_shuffle_sweep(scale):
        rep.add_row("shuffle", s.shuffle, "val MAE", f"{s.val_mae:.4f}")
    return rep


if __name__ == "__main__":
    print(report(scale="small"))
