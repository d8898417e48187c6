"""Fault tolerance end to end: crash-resume training + gateway fallback.

Walks the chaos subsystem's two guarantees:

1. **Training** — a distributed run with a scheduled ``rank_crash`` is
   checkpoint-resumed by the recovery loop and finishes with a loss
   curve *bitwise identical* to the uninterrupted run, both through the
   low-level ``train_with_recovery`` API and the declarative
   ``RunSpec(faults=...)`` path.
2. **Serving** — a gateway deployment's session dies mid-stream; its
   circuit opens, the fallback deployment answers in its place, and the
   probe restarts the session, so every request is answered.

Run it::

    PYTHONPATH=src python examples/fault_tolerance.py
"""

from __future__ import annotations

import numpy as np

from repro.api import RunSpec, build_gateway, run
from repro.runtime import FaultPlan
from repro.serving import GatewayLoadGenerator, TenantStream


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

    # -- 2. serving: a deployment's session dies mid-stream -------------
    test = clean.artifacts.loaders.test
    pool, _ = test.batch_at(np.arange(test.batch_size))
    gw = build_gateway(
        {"bay": clean, "standby": clean}, fallbacks={"bay": "standby"},
        max_batch=8, service_time=lambda n: 0.0005 + 0.0001 * n,
        fault_plan=FaultPlan().session_crash("bay", at_dispatch=2))
    stream = TenantStream(api_key="key-default", deployment="bay",
                          rate_qps=400.0, requests=requests)
    report = GatewayLoadGenerator(gw, pool.copy(), seed=0).open_loop(
        [stream], scenario="fallback-demo")
    print(f"serving:       {report.requests} reqs, {report.degraded} "
          f"answered by the fallback, {gw.resilience.restarts} session "
          f"restart(s), failed {report.failed}")
    assert report.requests == requests and report.failed == 0, \
        "every request must be answered"

    return {"restarts": chaos.restarts, "bitwise": bitwise,
            "degraded": report.degraded, "failed": report.failed}


if __name__ == "__main__":
    main()
