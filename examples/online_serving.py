"""Online serving: train tiny -> checkpoint -> serve -> query.

The full life of a forecast model, end to end in one process:

1. train a tiny PGT-DCRNN through ``repro.api.run``;
2. write a **self-describing checkpoint** (parameters + the ``RunSpec``
   + the fitted scaler), so serving needs nothing but the file;
3. bring it online with ``repro.api.serve`` — a micro-batching
   ``ForecastService`` over a restored ``ModelSession``;
4. stream observations into the sliding-window feature store and
   forecast from live state;
5. load-test it behind a gateway: QPS and p50/p95/p99 latency from the
   seeded open-loop load generator.

Run:  python examples/online_serving.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.api import RunSpec, build_gateway, run, serve
from repro.serving import GatewayLoadGenerator, TenantStream
from repro.training.checkpoint import save_checkpoint
from repro.utils.seeding import seed_everything


def main(scale: str = "tiny", epochs: int = 2, requests: int = 200) -> None:
    # The checkpoint lives only as long as the demo.
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as ckpt_dir:
        demo(ckpt_dir, scale, epochs, requests)


def demo(ckpt_dir: str, scale: str, epochs: int, requests: int) -> None:
    seed_everything(0)

    # 1. Train declaratively.
    spec = RunSpec(dataset="pems-bay", model="pgt-dcrnn", batching="index",
                   scale=scale, seed=0, epochs=epochs)
    result = run(spec)
    print(f"trained {result.epochs_run} epochs, best val MAE "
          f"{result.best_val_mae:.2f} mph")

    # 2. Self-describing checkpoint: spec + scaler travel with the weights.
    ckpt = os.path.join(ckpt_dir, "model.npz")
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
    svc.poll()
    print(f"burst of 8 requests served in {svc.stats.batches} batch(es), "
          f"mean batch size {svc.stats.mean_batch_size:.1f}")

    # 5. Load test: the checkpoint behind a gateway (one default tenant,
    # key "key-default"), seeded Poisson arrivals, measured service times.
    test = result.artifacts.loaders.test
    pool = test.batch_at(np.arange(test.batch_size))[0].copy()
    gw = build_gateway({"bay": ckpt}, max_batch=8)
    stream = TenantStream(api_key="key-default", deployment="bay",
                          rate_qps=2000.0, requests=requests)
    report = GatewayLoadGenerator(gw, pool, seed=0).open_loop([stream])
    print(report.summary())
    answered = report.per_tenant["default"]["completed"]
    print(f"answered {answered}/{report.requests}, failed {report.failed}")


if __name__ == "__main__":
    main()
