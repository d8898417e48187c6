"""Elastic training end to end: reshard a checkpoint, plan a world size.

Walks the two pieces of ``repro.elastic``:

1. **Checkpoint resharding** — train at world 2, rewrite the checkpoint
   for world 4 with :func:`reshard_checkpoint` (the global batch is
   preserved), resume, and land on the *fresh* world-4 curve within
   1e-6 — the world size becomes a live knob instead of a rerun.
2. **Capacity planner** — the analytic perf/cost models pick the world
   size for a runtime budget and price the reshard itself.

Run it::

    PYTHONPATH=src python examples/elastic.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.elastic import plan_training, reshard_checkpoint
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import ProcessGroup
from repro.training import DDPStrategy, DDPTrainer


def _trainer(idx, supports, *, world: int, global_batch: int = 16,
             seed: int = 0):
    model = PGTDCRNN(supports, horizon=4, in_features=2, hidden_dim=8,
                     seed=seed)
    return DDPTrainer(
        model, Adam(model.parameters(), lr=0.01), ProcessGroup.sim(world),
        IndexBatchLoader(idx, "train", global_batch // world),
        IndexBatchLoader(idx, "val", global_batch // world),
        strategy=DDPStrategy.DIST_INDEX, seed=seed, clip_norm=0.0)


def main(*, epochs: int = 2, nodes: int = 10, entries: int = 260) -> dict:
    # -- 1. reshard a world-2 checkpoint to world 4 ----------------------
    ds = load_dataset("pems-bay", nodes=nodes, entries=entries, seed=0)
    idx = IndexDataset.from_dataset(ds, horizon=4)
    supports = dual_random_walk_supports(ds.graph.weights)

    fresh4 = [(h.train_loss, h.val_mae)
              for h in _trainer(idx, supports, world=4).fit(1 + epochs)]

    two = _trainer(idx, supports, world=2)
    two.fit(1)
    with tempfile.TemporaryDirectory(prefix="elastic-example-") as d:
        ckpt = os.path.join(d, "w2.npz")
        two.save_training_checkpoint(ckpt, epoch=1, step=0)
        report = reshard_checkpoint(ckpt, 4)
        print(f"reshard:    {report.summary()}")
        resumed = _trainer(idx, supports, world=4)
        resumed.resume(ckpt)
        curve = [(h.train_loss, h.val_mae)
                 for h in resumed.fit(1 + epochs)]
    drift = float(np.max(np.abs(
        np.asarray(curve[1:]) - np.asarray(fresh4[1:]))))
    print(f"            resumed-at-4 vs fresh-4 max diff {drift:.2e}")
    assert drift < 1e-6, "resharded continuation must match the fresh run"

    # -- 2. plan capacity from the analytic models -----------------------
    from repro.datasets.catalog import get_spec
    from repro.training.perfmodel import TrainingPerfModel, pgt_dcrnn_perf

    spec = get_spec("pems-bay")
    perf = TrainingPerfModel(
        spec, pgt_dcrnn_perf(spec.num_nodes, spec.horizon,
                             spec.train_features), batch_size=64)
    single = perf.run("dist-index", 1, epochs=10).total_seconds
    plan = plan_training(perf, strategy="dist-index", epochs=10,
                         total_budget_seconds=single * 0.75,
                         worlds=(1, 2, 4, 8))
    print(f"plan:       {plan.summary()}")
    print(f"            reshard 2->4 itself costs "
          f"{perf.reshard_seconds(2, 4):.1f} simulated s")

    return {"reshard_drift": drift, "planned_world": plan.world_size}


if __name__ == "__main__":
    main()
