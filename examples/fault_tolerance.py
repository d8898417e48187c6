"""Fault tolerance end to end: crash-resume training + serving failover.

Walks the chaos subsystem's two guarantees:

1. **Training** — a distributed run with a scheduled ``rank_crash`` is
   checkpoint-resumed by the recovery loop and finishes with a loss
   curve *bitwise identical* to the uninterrupted run, both through the
   low-level ``train_with_recovery`` API and the declarative
   ``RunSpec(faults=...)`` path.
2. **Serving** — a sharded forecast service loses a worker mid-stream,
   fails over (promoting a standby or re-partitioning the survivors,
   replaying halo state from the observation log), and keeps answering
   with predictions equal to the unsharded session.

Run it::

    PYTHONPATH=src python examples/fault_tolerance.py
"""

from __future__ import annotations

import numpy as np

from repro.api import RunSpec, run, serve
from repro.runtime import FaultPlan
from repro.serving import LoadGenerator


def main(*, scale: str = "tiny", epochs: int = 2, world: int = 2,
         crash_step: int = 4, requests: int = 60) -> dict:
    # -- 1. training: crash, recover, reproduce bitwise -----------------
    base = RunSpec(dataset="pems-bay", scale=scale, epochs=epochs,
                   strategy="dist-index", world_size=world)
    clean = run(base)
    print(f"clean run:     curve={['%.4f' % v for v in clean.train_curve]}")

    chaos_spec = base.replace(
        faults=FaultPlan().rank_crash(step=crash_step, rank=1).to_spec())
    chaos = run(chaos_spec)
    bitwise = (chaos.train_curve == clean.train_curve
               and chaos.val_curve == clean.val_curve)
    print(f"chaos run:     curve={['%.4f' % v for v in chaos.train_curve]} "
          f"(restarts={chaos.restarts}, bitwise={bitwise})")
    assert bitwise, "recovery must reproduce the uninterrupted curve"

    # -- 2. serving: kill a shard worker mid-stream ----------------------
    test = clean.artifacts.loaders.test
    pool, _ = test.batch_at(np.arange(test.batch_size))
    pool = pool.copy()
    reference = serve(clean).session.predict(pool).copy()

    plan = FaultPlan().worker_crash(shard=1, at_request=requests // 2)
    svc = serve(clean, server="sharded", num_shards=4, max_batch=8,
                fault_plan=plan, service_time=lambda n: 0.0005 + 0.0001 * n)
    report = LoadGenerator(svc, pool, seed=0).closed_loop(
        requests=requests, concurrency=8, scenario="failover-demo")
    parity = float(np.max(np.abs(svc.session.predict(pool) - reference)))
    event = svc.failover_events[0]
    print(f"serving:       {report.requests} reqs at {report.qps:.0f} qps, "
          f"{report.failovers} failover ({event.mode}, "
          f"{event.num_shards_after} shards after) "
          f"p99 {report.failover_p99 * 1e3:.2f} ms, "
          f"post-failover parity err {parity:.1e}")
    assert parity <= 1e-6, "failover must preserve predictions"

    return {"restarts": chaos.restarts, "bitwise": bitwise,
            "failovers": report.failovers, "parity_max_abs_err": parity}


if __name__ == "__main__":
    main()
