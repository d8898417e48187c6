"""Ablation: graph partitioning + index-batching (paper §7: "investigate
the integration of index-batching with graph partitioning, potentially
yielding further speedups at a potential cost to accuracy").

Real training: one full-graph model against independent per-partition
models on the spectral partitions of the sensor graph, whose cross-
partition edges are cut — the accuracy cost the paper warns about.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.scales import get_scale
from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports, partition_graph
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.training import Trainer

NUM_PARTS = 4


def _fit(weights, idx: IndexDataset, scale, seed, model_seed):
    """Train one PGT-DCRNN on ``idx``: (best val MAE, seconds, flops)."""
    model = PGTDCRNN(dual_random_walk_supports(weights), idx.horizon, 2,
                     hidden_dim=scale.hidden_dim, seed=model_seed)
    trainer = Trainer(model, Adam(model.parameters(), lr=0.01),
                      IndexBatchLoader(idx, "train", scale.batch_size),
                      IndexBatchLoader(idx, "val", scale.batch_size),
                      scaler=idx.scaler, seed=seed)
    t0 = time.perf_counter()
    trainer.fit(scale.epochs)
    return (trainer.best_val_mae(), time.perf_counter() - t0,
            model.flops_per_snapshot())


def partitioning(scale: str, seed: int) -> dict[str, dict[str, float]]:
    scale = get_scale(scale)
    ds = load_dataset("pems-bay", nodes=scale.nodes, entries=scale.entries,
                      seed=seed)
    idx = IndexDataset.from_dataset(ds, horizon=scale.horizon or ds.spec.horizon)
    mae, seconds, flops = _fit(ds.graph.weights, idx, scale, seed, seed)
    rows = {"full-graph": {"val_mae": mae, "train_s": seconds,
                           "flops_per_snapshot": flops}}

    assignment = partition_graph(ds.graph.weights, NUM_PARTS)
    parts = []
    for part in range(NUM_PARTS):
        nodes = np.flatnonzero(assignment == part)
        if len(nodes) < 2:
            continue
        sub_idx = IndexDataset(
            data=np.ascontiguousarray(idx.data[:, nodes]),
            starts=idx.starts, horizon=idx.horizon, scaler=idx.scaler,
            train_end=idx.train_end, val_end=idx.val_end)
        parts.append((len(nodes), *_fit(ds.graph.weights[nodes][:, nodes].tocsr(),
                                        sub_idx, scale, seed,
                                        f"{seed}/part{part}")))
    total = sum(n for n, *_ in parts)
    rows[f"partitioned-{NUM_PARTS}"] = {
        "val_mae": sum(n * m for n, m, _, _ in parts) / total,
        "train_s": sum(s for _, _, s, _ in parts),
        "flops_per_snapshot": sum(f for *_, f in parts)}
    return rows
