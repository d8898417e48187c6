"""Multi-tenant gateway: two models, two tenants, one front door.

The production story on top of online serving:

1. train two tiny forecasters (PGT-DCRNN and DCRNN) and register them as
   named, version-pinned **deployments** behind one ``Gateway``;
2. onboard two **tenants** — ``ops`` (unlimited) and ``research``
   (token-bucket quota) — each with its own API key and private feature
   store;
3. serve mixed per-tenant traffic with the seeded load generator and a
   TTL **result cache** (hits bitwise-equal to recomputation);
4. **blue-green swap** the main deployment to a new checkpoint version
   mid-traffic: in-flight requests drain, nothing is dropped;
5. slam the gateway with a 10x **overload burst** and watch admission
   control shed deterministically instead of blowing every deadline.

Run:  python examples/gateway.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.api import RunSpec, build_gateway, run
from repro.serving import GatewayLoadGenerator, ManualClock, TenantStream
from repro.training.checkpoint import save_checkpoint
from repro.utils.seeding import seed_everything


def main(scale: str = "tiny", epochs: int = 2, requests: int = 200) -> None:
    # The checkpoint lives only as long as the demo.
    with tempfile.TemporaryDirectory(prefix="repro-gw-") as ckpt_dir:
        demo(ckpt_dir, scale, epochs, requests)


def demo(ckpt_dir: str, scale: str, epochs: int, requests: int) -> None:
    seed_everything(0)

    # 1. Two models, one gateway.  A synthetic service-time model keeps
    # the whole run bit-reproducible (batch of n costs 0.4 + 0.2n ms).
    spec_a = RunSpec(dataset="pems-bay", model="pgt-dcrnn",
                     batching="index", scale=scale, seed=0, epochs=epochs)
    spec_b = RunSpec(dataset="pems-bay", model="dcrnn",
                     batching="index", scale=scale, seed=0, epochs=epochs)
    result_a, result_b = run(spec_a), run(spec_b)
    print(f"trained bay={type(result_a.artifacts.model).__name__} "
          f"(val MAE {result_a.best_val_mae:.2f}), "
          f"bay-lite={type(result_b.artifacts.model).__name__} "
          f"(val MAE {result_b.best_val_mae:.2f})")

    gw = build_gateway(
        {"bay": result_a, "bay-lite": result_b},
        tenants=["ops", {"tenant_id": "research", "rate_qps": 200.0}],
        clock=ManualClock(), max_batch=8,
        service_time=lambda n: 4e-4 + 2e-4 * n, cache_ttl=30.0)
    print(f"gateway up: deployments {sorted(gw.deployments)}, "
          f"tenants ops (unlimited) + research (200 qps quota)")

    # v2 for the swap later: a self-describing checkpoint of the same
    # model (in production: tomorrow's retrain).
    ckpt = os.path.join(ckpt_dir, "bay-v2.npz")
    save_checkpoint(ckpt, result_a.artifacts.model,
                    epoch=result_a.epochs_run, spec=spec_a,
                    scaler=result_a.artifacts.loaders.scaler)

    # 2-3. Mixed tenant traffic through one merged open-loop timeline.
    test = result_a.artifacts.loaders.test
    pool = test.batch_at(np.arange(min(test.num_snapshots, 32)))[0].copy()
    gen = GatewayLoadGenerator(gw, pool, seed=0)
    report = gen.open_loop([
        TenantStream(api_key="key-ops", deployment="bay",
                     rate_qps=600.0, requests=(7 * requests) // 10,
                     deadline=0.05),
        TenantStream(api_key="key-research", deployment="bay-lite",
                     rate_qps=150.0, requests=(3 * requests) // 10,
                     deadline=0.05),
    ], scenario="steady")
    print(report.summary())
    answered = sum(t["completed"] for t in report.per_tenant.values())
    print(f"  answered {answered}/{report.requests}, failed {report.failed}")
    for tenant, t in sorted(report.per_tenant.items()):
        print(f"  {tenant}: {t['completed']}/{t['requests']} answered, "
              f"{t['cache_hits']} cache hits, {t['quota_rejected']} over "
              f"quota, p99 {t['latency_p99'] * 1e3:.2f} ms")
    print(f"  result cache: {gw.cache.stats.hits} hits / "
          f"{gw.cache.stats.misses} misses "
          f"({gw.cache.stats.hit_rate:.0%} hit rate)")

    # 4. Blue-green swap mid-traffic: queue a partial batch on v1, flip
    # to the v2 checkpoint.  The blue queue drains first — the swap
    # record proves nothing in flight was dropped.  (Drop the cache
    # entries first so these requests genuinely queue on blue.)
    gw.cache.invalidate("bay")
    for i in range(5):
        gw.submit("key-ops", "bay", pool[i])
    record = gw.swap("bay", ckpt, version="v2")
    gw.poll()
    print(f"blue-green swap {record.old_version} -> {record.new_version}: "
          f"{record.drained} in-flight drained, {record.dropped} dropped")
    check = gw.request("key-ops", "bay", pool[0])
    print(f"  post-swap request served by {check.deployment}@{check.version}")

    # 5. Overload burst: 3x the deployment's ~4000 qps capacity with a
    # tight deadline, through a cache-free gateway so every request costs
    # real compute.  Admission control projects each arrival's completion
    # and sheds the ones that cannot make it — goodput holds at capacity
    # instead of collapsing.
    gw_burst = build_gateway(
        {"bay": result_a}, tenants=["ops"], clock=ManualClock(),
        max_batch=8, service_time=lambda n: 4e-4 + 2e-4 * n,
        cache_ttl=None)
    burst = GatewayLoadGenerator(gw_burst, pool, seed=0).open_loop([
        TenantStream(api_key="key-ops", deployment="bay",
                     rate_qps=12000.0, requests=2 * requests,
                     deadline=0.010),
    ], scenario="overload")
    print(burst.summary())
    print(f"  shed by reason: {gw_burst.admission.shed_by_reason()}; "
          f"admitted requests missed {burst.deadline_misses} deadlines")


if __name__ == "__main__":
    main()
