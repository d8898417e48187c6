"""Online serving: train tiny -> checkpoint -> serve -> query.

The full life of a forecast model, end to end in one process:

1. train a tiny PGT-DCRNN through ``repro.api.run``;
2. write a **self-describing checkpoint** (parameters + the ``RunSpec``
   + the fitted scaler), so serving needs nothing but the file;
3. bring it online with ``repro.api.serve`` — a micro-batching
   ``ForecastService`` over a restored ``ModelSession``;
4. stream observations into the sliding-window feature store and
   forecast from live state;
5. re-serve the same checkpoint sharded (graph-partitioned workers with
   halo exchange) and check the predictions agree;
6. measure QPS and p50/p95/p99 latency with the seeded load generator.

Run:  python examples/online_serving.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.api import RunSpec, run, serve
from repro.serving import LoadGenerator
from repro.training.checkpoint import save_checkpoint
from repro.utils.seeding import seed_everything


def main(scale: str = "tiny", epochs: int = 2, requests: int = 200,
         shards: int = 2) -> None:
    seed_everything(0)

    # 1. Train declaratively.
    spec = RunSpec(dataset="pems-bay", model="pgt-dcrnn", batching="index",
                   scale=scale, seed=0, epochs=epochs)
    result = run(spec)
    print(f"trained {result.epochs_run} epochs, best val MAE "
          f"{result.best_val_mae:.2f} mph")

    # 2. Self-describing checkpoint: spec + scaler travel with the weights.
    ckpt = os.path.join(tempfile.mkdtemp(prefix="repro-serve-"), "model.npz")
    save_checkpoint(ckpt, result.artifacts.model,
                    epoch=result.epochs_run, spec=spec,
                    scaler=result.artifacts.loaders.scaler)
    print(f"checkpoint: {ckpt} ({os.path.getsize(ckpt):,} bytes)")

    # 3. Serve it.  The session rebuilds model + graph from the embedded
    # spec and answers no_grad forwards through persistent buffers.
    svc = serve(ckpt, max_batch=8)
    session = svc.session
    print(f"serving {type(session.model).__name__}: "
          f"{session.num_nodes} sensors, horizon {session.horizon}")

    # 4. Stream observations: replay the tail of the raw signal as if
    # sensors were reporting live, then forecast from the stored window.
    ds = result.artifacts.dataset
    warm = 2 * session.horizon
    for values, ts in zip(ds.signals[-warm:], ds.timestamps[-warm:]):
        svc.ingest(values, float(ts))
    streamed = svc.forecast_streamed()
    print(f"live forecast from {warm} streamed rows: "
          f"mean {streamed.mean():.1f} mph over the next "
          f"{session.horizon} steps x {session.num_nodes} sensors")

    # A burst of concurrent requests coalesces into one fused forward:
    # submit everything that is due, then poll.
    window = session.current_window()
    for _ in range(8):
        svc.submit(window)
    burst = svc.poll()
    print(f"burst of 8 requests served in {svc.stats.batches} batch(es), "
          f"mean batch size {svc.stats.mean_batch_size:.1f}")

    # 5. The same checkpoint, sharded: partitioned sensor ownership,
    # byte-accounted halo exchange, identical predictions.
    sharded = serve(ckpt, server="sharded", num_shards=shards,
                    max_batch=8)
    for values, ts in zip(ds.signals[-warm:], ds.timestamps[-warm:]):
        sharded.ingest(values, float(ts))
    merged = sharded.forecast_streamed()
    drift = float(np.max(np.abs(merged - streamed)))
    halo = sharded.session.halo_stats()
    print(f"sharded x{shards}: max |sharded - local| = {drift:.2e}; "
          f"halo traffic {halo['bytes_by_category']} over {halo['ops']} ops")

    # 6. Load test: seeded arrivals, measured service times.
    test = result.artifacts.loaders.test
    pool = test.batch_at(np.arange(test.batch_size))[0].copy()
    bench_svc = serve(ckpt, max_batch=8)
    gen = LoadGenerator(bench_svc, pool, seed=0)
    report = gen.closed_loop(requests=requests, concurrency=8)
    print(report.summary())


if __name__ == "__main__":
    main()
