"""Elastic scale end to end: reshard, autoscale, and plan capacity.

Walks the three pieces of ``repro.elastic``:

1. **Checkpoint resharding** — train at world 2, rewrite the checkpoint
   for world 4 with :func:`reshard_checkpoint` (the global batch is
   preserved), resume, and land on the *fresh* world-4 curve within
   1e-6 — the world size becomes a live knob instead of a rerun.
2. **Serving autoscaler** — a 2-shard forecast fleet under a
   500 -> 2200 -> 500 qps traffic step doubles to 4 shards when the p99
   breaches the SLO and halves back when traffic quiets, with every
   decision, latency, and membership change on the deterministic manual
   clock.
3. **Capacity planner** — the analytic perf/cost models pick the world
   size for a runtime budget and the shard envelope for a traffic/SLO
   budget, which seeds the autoscaler's setpoints.

Run it::

    PYTHONPATH=src python examples/elastic.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.api import RunSpec, run
from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.elastic import (
    AutoscalerPolicy,
    ShardAutoscaler,
    autoscaler_setpoints,
    plan_training,
    reshard_checkpoint,
    run_autoscaled_trace,
    shard_scaled_service_time,
)
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import ProcessGroup
from repro.serving import ShardedSession
from repro.serving.service import ForecastService
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


def main(*, scale: str = "tiny", epochs: int = 2, nodes: int = 10,
         entries: int = 260, requests_per_tick: int = 40) -> dict:
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

    # -- 2. autoscale a shard fleet through a traffic step ---------------
    trained = run(RunSpec(dataset="pems-bay", model="pgt-dcrnn",
                          batching="index", scale=scale, seed=0, epochs=1))
    test = trained.artifacts.loaders.test
    pool, _ = test.batch_at(np.arange(test.batch_size))
    sess = ShardedSession(trained.artifacts.model,
                          trained.artifacts.loaders.scaler,
                          trained.artifacts.dataset.graph,
                          spec=trained.spec, num_shards=2, num_standby=2)
    svc = ForecastService(
        sess, max_batch=8,
        service_time=shard_scaled_service_time(sess, base=2e-3,
                                               per_item=1.5e-3))
    policy = AutoscalerPolicy(slo_p99=4.5e-3, min_shards=2, max_shards=4,
                              scale_down_at=0.4, transition_seconds=0.02)
    autoscaler = ShardAutoscaler(sess, policy, svc.clock)
    trace = run_autoscaled_trace(
        svc, pool.copy(), autoscaler,
        [(500.0, 3), (2200.0, 5), (500.0, 4)],
        seed=0, tick_requests=requests_per_tick)
    print(f"autoscale:  {trace.summary()}")
    for ev in trace.events:
        print(f"            {ev.from_shards}->{ev.to_shards} shards: "
              f"{ev.reason}")
    assert trace.shards_path[0] < max(trace.shards_path), \
        "the traffic step must force a scale-up"

    # -- 3. plan capacity from the analytic models -----------------------
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
    setpoints = autoscaler_setpoints(
        low_qps=500.0, peak_qps=2200.0, slo_p99=9e-3,
        service_time=lambda batch, shards: (2e-3 + 1e-3 * batch) / shards,
        max_batch=8)
    print(f"            autoscaler setpoints from the traffic envelope: "
          f"[{setpoints.min_shards}, {setpoints.max_shards}] shards")

    return {
        "reshard_drift": drift,
        "shards_path": trace.shards_path,
        "slo_compliance": trace.slo_compliance,
        "planned_world": plan.world_size,
        "setpoints": (setpoints.min_shards, setpoints.max_shards),
    }


if __name__ == "__main__":
    main()
