"""Resume a training run at a new world size.

Every rank of a distributed-index-batching run holds the whole dataset
and a full replica of the model and optimizer state, so a checkpoint's
only world-dependent state is its training cursor.  This example trains
at world 2, saves an epoch-boundary checkpoint, relaunches at world 4
through :meth:`DDPTrainer.resume` (the loaders keep the global batch,
``world x per-rank batch``), and lands on the *fresh* world-4 curve
within 1e-6 — the world size is a relaunch knob, not a rerun.

Run it::

    PYTHONPATH=src python examples/elastic.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
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
        resumed = _trainer(idx, supports, world=4)
        resumed.resume(ckpt)
        print(f"resume:     world-2 checkpoint at epoch 1 -> world 4 "
              f"(batch {two.train_loader.batch_size} -> "
              f"{resumed.train_loader.batch_size} per rank, global 16)")
        curve = [(h.train_loss, h.val_mae)
                 for h in resumed.fit(1 + epochs)]
    drift = float(np.max(np.abs(
        np.asarray(curve[1:]) - np.asarray(fresh4[1:]))))
    print(f"            resumed-at-4 vs fresh-4 max diff {drift:.2e}")
    assert drift < 1e-6, "a resume at world 4 must match the fresh run"
    return {"resume_drift": drift}


if __name__ == "__main__":
    main()
