"""Tests for the online forecast-serving subsystem (``repro.serving``).

The load-bearing guarantees:

- micro-batched and sharded predictions match single-request single-shard
  inference (the batching/sharding layers are pure plumbing);
- the streaming feature store reproduces the offline preprocessing
  pipeline bitwise;
- load-generator runs are deterministic given a seed and a synthetic
  service-time model.
"""

import heapq
import importlib
import inspect
import os
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunSpec, list_servers, run, serve
from repro.preprocessing.index_batching import IndexDataset
from repro.runtime import ProcessGroup
from repro.serving import (
    FeatureStore,
    LoadGenerator,
    LoadReport,
    ManualClock,
    MicroBatchQueue,
    ModelSession,
    ShardedSession,
)
from repro.serving.loadgen import _serve_arrivals
from repro.serving.service import ForecastService
from repro.training.checkpoint import save_checkpoint
from repro.utils.errors import ShapeError
from tests.test_resilience import H, N, F, ToySession

SPEC = dict(dataset="pems-bay", model="pgt-dcrnn", batching="index",
            scale="tiny", seed=0, epochs=1)


@pytest.fixture(scope="module")
def trained():
    return run(RunSpec(**SPEC))


@pytest.fixture(scope="module")
def pool(trained):
    test = trained.artifacts.loaders.test
    xb, _ = test.batch_at(np.arange(test.batch_size))
    return xb.copy()


@pytest.fixture(scope="module")
def ckpt(trained, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve") / "model.npz")
    save_checkpoint(path, trained.artifacts.model, epoch=1,
                    spec=trained.spec, scaler=trained.artifacts.loaders.scaler)
    return path


def make_session(trained, **kw):
    return ModelSession(trained.artifacts.model,
                        trained.artifacts.loaders.scaler,
                        spec=trained.spec, **kw)


class TestModelSession:
    def test_restores_exact_parameters(self, trained, ckpt):
        session = ModelSession.from_checkpoint(ckpt)
        restored = dict(session.model.named_parameters())
        for name, p in trained.artifacts.model.named_parameters():
            np.testing.assert_array_equal(p.data, restored[name].data,
                                          err_msg=name)

    def test_predict_matches_model(self, trained, pool):
        session = make_session(trained)
        direct = trained.artifacts.model.predict(pool)
        np.testing.assert_array_equal(session.predict(pool).copy(), direct)

    def test_predict_rejects_bad_shapes(self, trained, pool):
        session = make_session(trained)
        with pytest.raises(ShapeError):
            session.predict(pool[:, :2])

    def test_staging_buffer_reused(self, trained, pool):
        session = make_session(trained)
        session.predict(pool[:2])
        buf = session._in_buf
        session.predict(pool[:2])
        assert session._in_buf is buf
        assert session.requests_served == 4

    def test_staging_grows_to_the_largest_batch(self, trained, pool):
        """A session has no batch cap (the queue has): a default one
        predicts 33 windows, then reuses that buffer for any batch up to
        33."""
        session = make_session(trained)
        windows = pool[np.arange(33) % len(pool)]
        got = session.predict(windows).copy()
        np.testing.assert_array_equal(
            got, trained.artifacts.model.predict(windows))
        buf = session._in_buf
        for n in (1, 33, 5):
            session.predict(windows[:n])
        assert session._in_buf is buf

    def test_inference_guard_refuses_train_mode(self, trained, pool):
        session = make_session(trained)
        session.model.train()
        try:
            with pytest.raises(RuntimeError, match="eval mode"):
                session.predict(pool[:1])
        finally:
            session.model.eval()

    def test_refuses_non_self_describing_checkpoint(self, trained, tmp_path):
        path = str(tmp_path / "bare.npz")
        save_checkpoint(path, trained.artifacts.model)
        with pytest.raises(ValueError, match="self-describing"):
            ModelSession.from_checkpoint(path)


class TestMicroBatchParity:
    def test_batched_equals_single(self, trained, pool):
        """Acceptance: micro-batched == batch-of-1 inference (<= 1e-6)."""
        session = make_session(trained)
        singles = np.stack([session.predict(pool[i:i + 1])[0].copy()
                            for i in range(8)])
        svc = serve(trained, max_batch=8)
        ids = [svc.submit(pool[i]) for i in range(8)]
        done = {fc.request_id: fc for fc in svc.poll() + svc.flush()}
        assert sorted(done) == sorted(ids)
        expected = svc.session.to_original_units(singles)
        for i, rid in enumerate(ids):
            np.testing.assert_allclose(done[rid].predictions, expected[i],
                                       atol=1e-6, rtol=0)
        assert svc.stats.batches == 1 and svc.stats.requests == 8

    def test_forecast_immediate_is_batch_of_one(self, trained, pool):
        svc = serve(trained, max_batch=8)
        fc = svc.forecast(pool[0])
        assert fc.batch_size == 1
        single = svc.session.to_original_units(
            svc.session.predict(pool[:1])[0])
        np.testing.assert_allclose(fc.predictions, single, atol=1e-6, rtol=0)

    def test_forecast_keeps_pending_completions(self, trained, pool):
        """forecast() must not swallow other requests' results: anything
        it coalesces with stays buffered for the next poll/flush."""
        svc = serve(trained, max_batch=8)
        pending = svc.submit(pool[0])
        fc = svc.forecast(pool[1])
        assert fc.batch_size == 2       # coalesced into one forward
        held = svc.poll() + svc.flush()
        assert [f.request_id for f in held] == [pending]
        single = svc.session.to_original_units(
            svc.session.predict(pool[:1])[0])
        np.testing.assert_allclose(held[0].predictions, single,
                                   atol=1e-6, rtol=0)

    def test_bad_window_rejected_at_submit(self, trained, pool):
        """A malformed window fails its own caller at the door; requests
        already coalesced with it are unaffected."""
        svc = serve(trained, max_batch=8)
        ok = svc.submit(pool[0])
        with pytest.raises(ShapeError):
            svc.submit(pool[0, :2])
        with pytest.raises(ShapeError):
            svc.forecast(pool[0, :, :3])
        done = svc.flush()
        assert [fc.request_id for fc in done] == [ok]

    def test_materialise_fills_session_staging(self, trained, pool):
        """The service stacks micro-batches straight into the session's
        persistent staging buffer — no intermediate batch copy."""
        svc = serve(trained, max_batch=8)
        staged = svc.session.stage(3)
        assert staged.base is svc.session._in_buf
        for i in range(3):
            svc.submit(pool[i])
        done = svc.flush()
        assert len(done) == 3 and svc.stats.batches == 1


class TestSharding:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_shard_count_invariance(self, trained, pool, shards):
        """Acceptance: predictions are invariant in the shard count."""
        local = make_session(trained).predict(pool).copy()
        sharded = ShardedSession(
            trained.artifacts.model, trained.artifacts.loaders.scaler,
            trained.artifacts.dataset.graph, num_shards=shards,
            spec=trained.spec)
        np.testing.assert_array_equal(sharded.predict(pool), local)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_inline_predict_forwards_once(self, trained, pool, shards,
                                          monkeypatch):
        """Every shard would forward the same staged batch, so the inline
        path forwards it once, whatever the shard count."""
        local = make_session(trained).predict(pool).copy()
        model = trained.artifacts.model
        sharded = ShardedSession(
            model, trained.artifacts.loaders.scaler,
            trained.artifacts.dataset.graph, num_shards=shards,
            spec=trained.spec)
        forwards = []
        forward = model.forward
        monkeypatch.setattr(model, "forward", lambda *a, **kw: (
            forwards.append(1), forward(*a, **kw))[1])
        out = sharded.predict(pool)
        assert len(forwards) == 1
        np.testing.assert_array_equal(out, local)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_forked_predict_matches_local(self, trained, pool, shards):
        local = make_session(trained).predict(pool).copy()
        group = ProcessGroup.processes(shards)
        try:
            out = ShardedSession(
                trained.artifacts.model, trained.artifacts.loaders.scaler,
                trained.artifacts.dataset.graph, num_shards=shards,
                spec=trained.spec, comm=group).predict(pool)
        finally:
            group.transport.shutdown()
        np.testing.assert_array_equal(out, local)

    @pytest.mark.parametrize("server", ["local", "sharded"])
    def test_store_below_horizon_fails_at_build(self, trained, server):
        """A ring shorter than the horizon can never hold a window, so it
        is refused when built; one horizon is enough to stream."""
        horizon = trained.artifacts.model.horizon
        with pytest.raises(ValueError,
                           match=f"capacity {horizon - 1} .*horizon {horizon}"):
            serve(trained, server=server, store_capacity=horizon - 1)
        svc = serve(trained, server=server, store_capacity=horizon)
        ds = trained.artifacts.dataset
        with pytest.raises(RuntimeError, match="ingest more history"):
            svc.forecast_streamed()
        for values, ts in zip(ds.signals[:horizon], ds.timestamps[:horizon]):
            svc.ingest(values, float(ts))
        assert svc.forecast_streamed().shape == (horizon, ds.num_nodes)

    def test_streamed_state_matches_local(self, trained):
        ds = trained.artifacts.dataset
        scaler = trained.artifacts.loaders.scaler
        local = serve(trained, max_batch=4)
        sharded = serve(trained, server="sharded", num_shards=2, max_batch=4)
        warm = 2 * local.session.horizon
        for values, ts in zip(ds.signals[-warm:], ds.timestamps[-warm:]):
            local.ingest(values, float(ts))
            sharded.ingest(values, float(ts))
        np.testing.assert_array_equal(sharded.forecast_streamed(),
                                      local.forecast_streamed())
        stats = sharded.session.halo_stats()
        assert stats["bytes_by_category"].get("halo", 0) > 0
        assert sum(stats["owned_sizes"]) == ds.num_nodes

    def test_forecast_nodes_routes_to_owners(self, trained):
        ds = trained.artifacts.dataset
        sharded = ShardedSession(
            trained.artifacts.model, trained.artifacts.loaders.scaler,
            ds.graph, num_shards=2, spec=trained.spec)
        warm = 2 * sharded.horizon
        for values, ts in zip(ds.signals[-warm:], ds.timestamps[-warm:]):
            sharded.ingest(values, float(ts))
        full = sharded.forecast_current().copy()
        nodes = np.array([sharded.workers[0].owned[0],
                          sharded.workers[1].owned[0]])
        routed = sharded.forecast_nodes(nodes)
        np.testing.assert_array_equal(routed, full[:, nodes, 0])

    def test_truncated_halo_is_cheaper(self, trained):
        ds = trained.artifacts.dataset
        exact = ShardedSession(trained.artifacts.model,
                               trained.artifacts.loaders.scaler, ds.graph,
                               num_shards=2, spec=trained.spec)
        trunc = ShardedSession(trained.artifacts.model,
                               trained.artifacts.loaders.scaler, ds.graph,
                               num_shards=2, spec=trained.spec,
                               receptive_hops=0)
        assert all(len(w.halo) == 0 for w in trunc.workers)
        assert all(len(w.halo) > 0 for w in exact.workers)

    def test_window_none_served_on_sharded_path(self, trained):
        """A ``window=None`` request works on a sharded service: the
        current window assembles from the shards' owned columns and the
        answer matches the streamed (halo-exchange) forecast."""
        ds = trained.artifacts.dataset
        local = serve(trained, max_batch=4)
        sharded = serve(trained, server="sharded", num_shards=2, max_batch=4)
        warm = 2 * local.session.horizon
        for values, ts in zip(ds.signals[-warm:], ds.timestamps[-warm:]):
            local.ingest(values, float(ts))
            sharded.ingest(values, float(ts))
        fc = sharded.forecast(None)
        np.testing.assert_array_equal(fc.predictions,
                                      sharded.forecast_streamed())
        np.testing.assert_array_equal(fc.predictions,
                                      local.forecast(None).predictions)

    def test_current_window_is_a_snapshot(self, trained):
        """A queued request keeps the window it was submitted with: later
        ingests must not mutate it (current_window returns a copy)."""
        ds = trained.artifacts.dataset
        svc = serve(trained, server="sharded", num_shards=2,
                    max_batch=4)
        warm = 2 * svc.session.horizon
        for values, ts in zip(ds.signals[:warm], ds.timestamps[:warm]):
            svc.ingest(values, float(ts))
        snap = svc.session.current_window().copy()
        queued = svc.submit(svc.session.current_window())
        for values, ts in zip(ds.signals[warm:2 * warm],
                              ds.timestamps[warm:2 * warm]):
            svc.ingest(values, float(ts))
        done = {fc.request_id: fc for fc in svc.flush()}
        expected = svc.session.to_original_units(
            svc.session.predict(snap[None])[0])
        np.testing.assert_array_equal(done[queued].predictions, expected)

    def test_sharded_predict_allocates_no_broadcast_copies(self, trained,
                                                           pool):
        """Request fan-out is charged to the communicator without
        materialising per-shard batch copies."""
        sharded = ShardedSession(
            trained.artifacts.model, trained.artifacts.loaders.scaler,
            trained.artifacts.dataset.graph, num_shards=2,
            spec=trained.spec)
        sharded.predict(pool)
        stats = sharded.halo_stats()
        assert stats["bytes_by_category"]["serve-request"] \
            == pool.astype(np.float32).nbytes

    def test_builder_passes_domain_not_feature_guess(self, trained):
        """repro.api builds shard stores from the dataset's domain; the
        in_features==2 heuristic is only the direct-construction
        fallback."""
        sharded = serve(trained, server="sharded", num_shards=2)
        assert sharded.session.add_time_feature \
            == (trained.artifacts.dataset.spec.domain == "traffic")
        explicit = ShardedSession(
            trained.artifacts.model, trained.artifacts.loaders.scaler,
            trained.artifacts.dataset.graph, num_shards=2,
            spec=trained.spec, add_time_feature=True)
        assert all(w.store.add_time_feature for w in explicit.workers)

    def test_owner_of_bounds(self, trained):
        sharded = ShardedSession(
            trained.artifacts.model, trained.artifacts.loaders.scaler,
            trained.artifacts.dataset.graph, num_shards=2, spec=trained.spec)
        owners = {sharded.owner_of(n) for n in range(sharded.num_nodes)}
        assert owners == {0, 1}
        with pytest.raises(IndexError):
            sharded.owner_of(sharded.num_nodes)


class TestFeatureStore:
    def test_matches_offline_pipeline_bitwise(self, trained):
        """Acceptance: streamed windows == IndexDataset windows, bitwise."""
        ds = trained.artifacts.dataset
        idx = IndexDataset.from_dataset(ds, horizon=4,
                                        store_dtype=np.float32)
        store = FeatureStore.for_dataset(ds, idx.scaler,
                                         capacity=ds.num_entries)
        for values, ts in zip(ds.signals, ds.timestamps):
            store.ingest(values, float(ts))
        for h in (1, 4, 8):
            np.testing.assert_array_equal(store.window(h), idx.data[-h:])

    def test_ring_wraparound(self, trained):
        ds = trained.artifacts.dataset
        scaler = trained.artifacts.loaders.scaler
        store = FeatureStore.for_dataset(ds, scaler, capacity=5)
        for values, ts in zip(ds.signals[:12], ds.timestamps[:12]):
            store.ingest(values, float(ts))
        assert store.size == 5 and store.total_ingested == 12
        reference = FeatureStore.for_dataset(ds, scaler, capacity=12)
        for values, ts in zip(ds.signals[:12], ds.timestamps[:12]):
            reference.ingest(values, float(ts))
        np.testing.assert_array_equal(store.window(5), reference.window(5))

    def test_errors(self, trained):
        ds = trained.artifacts.dataset
        scaler = trained.artifacts.loaders.scaler
        store = FeatureStore.for_dataset(ds, scaler, capacity=4)
        with pytest.raises(RuntimeError, match="ingest more history"):
            store.window(1)
        with pytest.raises(ShapeError):
            store.ingest(np.zeros((ds.num_nodes + 1, ds.raw_features)), 0.0)
        from repro.preprocessing.scaler import StandardScaler
        with pytest.raises(ValueError, match="fitted"):
            FeatureStore(StandardScaler(), num_nodes=4, raw_features=1,
                         capacity=4)


class TestMicroBatchQueue:
    def test_coalesces_by_size(self):
        clock = ManualClock()
        q = MicroBatchQueue(max_batch=3, clock=clock)
        for i in range(3):
            q.submit(np.zeros(1))
        batch = q.next_batch()
        assert [r.batch_size for r in batch] == [3, 3, 3]
        assert len(q) == 0 and q.next_batch() == []

    def test_partial_batch_leaves_at_once(self):
        """Whatever is pending is ready: nothing is held back to wait for
        company, however far below ``max_batch`` the backlog is."""
        clock = ManualClock(start=1.0)
        q = MicroBatchQueue(max_batch=8, clock=clock)
        for _ in range(3):
            q.submit(np.zeros(1))
        batch = q.next_batch()
        assert [r.batch_size for r in batch] == [3, 3, 3]
        assert [r.queue_wait for r in batch] == [0.0, 0.0, 0.0]
        assert len(q) == 0

    def test_backlog_leaves_in_fifo_chunks(self):
        q = MicroBatchQueue(max_batch=4, clock=ManualClock())
        for _ in range(11):
            q.submit(np.zeros(1))
        chunks = [q.next_batch() for _ in range(3)]
        assert [len(c) for c in chunks] == [4, 4, 3]
        assert [r.request_id for c in chunks for r in c] == list(range(11))
        assert len(q) == 0

    def test_deadline_accounting(self, trained, pool):
        svc = serve(trained, max_batch=4, service_time=lambda n: 0.010)
        ok = svc.forecast(pool[0], deadline=svc.clock() + 1.0)
        late = svc.forecast(pool[0], deadline=svc.clock() + 0.001)
        assert not ok.deadline_missed and late.deadline_missed
        assert svc.stats.deadline_misses == 1

    def test_deadline_expired_at_submit_still_queues(self):
        """A request whose deadline already passed is queued and served
        (and counted as a miss at completion), never silently dropped."""
        clock = ManualClock(start=10.0)
        q = MicroBatchQueue(max_batch=2, clock=clock)
        req = q.submit(np.zeros(1), deadline=5.0)
        assert len(q) == 1
        q.submit(np.zeros(1))
        batch = q.next_batch()
        assert batch[0] is req
        req.completed = clock()
        assert req.deadline_missed

    def test_service_stats_count_expired_at_submit(self, trained, pool):
        """ServiceStats.deadline_misses includes requests that were
        already hopeless when submitted."""
        svc = serve(trained, max_batch=4, service_time=lambda n: 0.001)
        svc.submit(pool[0], deadline=svc.clock() - 1.0)   # born expired
        svc.submit(pool[0], deadline=svc.clock() + 10.0)
        done = svc.flush()
        assert [fc.deadline_missed for fc in done] == [True, False]
        assert svc.stats.deadline_misses == 1
        assert svc.stats.requests == 2


class TestServeAPI:
    def test_registry_lists_servers(self):
        assert {"local", "sharded"} <= set(list_servers())

    def test_serve_unknown_server(self, trained):
        with pytest.raises(KeyError, match="unknown server"):
            serve(trained, server="nope")

    def test_serve_rejects_unknown_keywords(self, trained):
        """A typo'd knob names itself at the call instead of being
        swallowed by the server builder."""
        with pytest.raises(TypeError, match="max_bach"):
            serve(trained, max_bach=4, num_shards=4, stor_capacity=3)
        with pytest.raises(TypeError, match="stor_capacity"):
            serve(trained, server="sharded", stor_capacity=3)
        # Right keyword, wrong server: still loud, and says where it fits.
        with pytest.raises(TypeError, match="num_standby.*server='sharded'"):
            serve(trained, server="local", num_standby=1)
        svc = serve(trained, server="sharded", num_shards=2)
        assert svc.session.num_shards == 2

    def test_serve_rejects_other_types(self):
        with pytest.raises(TypeError, match="checkpoint path"):
            serve(123)

    def test_checkpoint_and_result_agree(self, trained, ckpt, pool):
        """Acceptance: checkpoint -> serve -> query == in-memory model."""
        from_ckpt = serve(ckpt, max_batch=8)
        from_result = serve(trained, max_batch=8)
        a = from_ckpt.forecast(pool[0]).predictions
        b = from_result.forecast(pool[0]).predictions
        np.testing.assert_array_equal(a, b)

    def test_restore_reuses_runner_dataset_cache(self, trained, ckpt):
        """serve(ckpt) right after run(spec) must not regenerate the
        dataset: both go through the runner's dataset cache."""
        from repro.api.serving import restore_checkpoint
        _, _, _, ds = restore_checkpoint(ckpt)
        assert ds is trained.artifacts.dataset

    def test_serve_spec_trains_then_serves(self, pool):
        svc = serve(RunSpec(**SPEC), max_batch=4)
        fc = svc.forecast(pool[0])
        assert fc.predictions.shape == (4, 8)
        assert np.isfinite(fc.predictions).all()

    def test_sharded_serve_from_checkpoint(self, trained, ckpt, pool):
        local = serve(ckpt, max_batch=8)
        sharded = serve(ckpt, server="sharded", num_shards=2, max_batch=8)
        np.testing.assert_array_equal(
            sharded.forecast(pool[0]).predictions,
            local.forecast(pool[0]).predictions)


def _public_callables(module):
    """``{name: callable}`` for what ``module`` defines: its public
    functions and classes (exceptions aside), and each class's public
    methods."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or not callable(obj) \
                or getattr(obj, "__module__", None) != module.__name__ \
                or inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        out[name] = obj
        if inspect.isclass(obj):
            out.update((f"{name}.{attr}", getattr(obj, attr))
                       for attr in vars(obj) if not attr.startswith("_")
                       and callable(getattr(obj, attr)))
    return out


def test_max_batch_is_set_only_on_the_queue_side():
    """One batch cap per queue: ``max_batch`` is taken by the front doors
    that set it and the queue that reads it, and by no session
    constructor, session builder or session source."""
    import repro.serving
    from repro.api import serving as api_serving

    callables = {f"SERVERS[{key!r}]": api_serving.SERVERS.get(key)
                 for key in api_serving.SERVERS}
    for module in [api_serving] + [
            importlib.import_module(info.name) for info in
            pkgutil.walk_packages(repro.serving.__path__, "repro.serving.")]:
        callables.update(_public_callables(module))
    takers = {name for name, fn in callables.items()
              if "max_batch" in inspect.signature(fn).parameters}
    assert takers == {"serve", "build_gateway", "Gateway", "Deployment",
                      "ForecastService", "MicroBatchQueue"}


def synthetic_service(trained, **kw):
    kw.setdefault("max_batch", 8)
    return serve(trained, service_time=lambda n: 0.0005 + 0.0001 * n, **kw)


class TestLoadGenerator:
    def test_open_loop_deterministic(self, trained, pool):
        """Acceptance: fixed seed + synthetic service time => identical
        reports, down to the last percentile."""
        reports = []
        for _ in range(2):
            gen = LoadGenerator(synthetic_service(trained), pool, seed=7)
            reports.append(gen.open_loop(requests=150, rate_qps=1500.0))
        assert reports[0].to_dict() == reports[1].to_dict()

    def test_closed_loop_deterministic(self, trained, pool):
        reports = []
        for _ in range(2):
            gen = LoadGenerator(synthetic_service(trained), pool, seed=3)
            reports.append(gen.closed_loop(requests=100, concurrency=8))
        assert reports[0].to_dict() == reports[1].to_dict()

    def test_closed_loop_completes_exactly(self, trained, pool):
        gen = LoadGenerator(synthetic_service(trained), pool, seed=0)
        report = gen.closed_loop(requests=64, concurrency=4)
        assert report.requests == 64
        assert report.qps > 0
        assert 1.0 <= report.mean_batch_size <= 8.0
        assert report.mode == "closed" and report.offered_qps is None

    def test_open_loop_respects_offered_rate(self, trained, pool):
        gen = LoadGenerator(synthetic_service(trained), pool, seed=0)
        report = gen.open_loop(requests=200, rate_qps=800.0,
                               arrival="uniform")
        assert report.requests == 200
        # Served throughput tracks the offered rate when under capacity.
        assert report.qps == pytest.approx(800.0, rel=0.1)

    def test_deadlines_counted(self, trained, pool):
        svc = serve(trained, max_batch=8, service_time=lambda n: 0.005)
        gen = LoadGenerator(svc, pool, seed=0)
        report = gen.open_loop(requests=50, rate_qps=1000.0, deadline=0.004)
        assert report.deadline_misses > 0

    def test_requires_manual_clock(self, trained, pool):
        import time
        svc = serve(trained, clock=time.perf_counter)
        with pytest.raises(TypeError, match="ManualClock"):
            LoadGenerator(svc, pool)

    def test_rejects_bad_pool(self, trained):
        with pytest.raises(ShapeError):
            LoadGenerator(synthetic_service(trained), np.zeros((4, 8, 2)))

    def test_service_report_carries_no_gateway_fields(self, trained, pool):
        report = LoadGenerator(synthetic_service(trained), pool,
                               seed=0).closed_loop(requests=8)
        assert type(report) is LoadReport
        assert not hasattr(report, "goodput_qps")
        assert "goodput" not in report.summary()


# ---------------------------------------------------------------------------
# The batching policy, as properties
# ---------------------------------------------------------------------------
def batch_cost(n: int) -> float:
    return 4e-4 + 2e-4 * n


def poll_after_every_submit(clock, arrivals, submit, poll):
    """The driver the work-conserving queue must not be given: it hands
    over one request at a time, so nothing can ever share a forward."""
    out = []
    while arrivals:
        clock.advance_to(arrivals[0][0])
        submit(heapq.heappop(arrivals))
        out.extend(poll())
    return out


def run_schedule(schedule, max_batch, *, drive=_serve_arrivals, hold=0.0):
    """Serve ``schedule`` (sorted arrival times) on a toy session with a
    fixed cost model; request ``i`` is the one scheduled at
    ``schedule[i]``.  Returns the session, each request's arrival stamp
    and ``(poll instant, forecasts)`` per poll.  ``hold`` delays every
    poll: the deleted timer, as a mutant."""
    clock = ManualClock()
    session = ToySession(max_batch=8)
    svc = ForecastService(session, max_batch=max_batch, clock=clock,
                          service_time=batch_cost)
    window = np.zeros((H, N, F))
    stamped, polls = [], []

    def submit(_event):
        svc.submit(window)
        stamped.append(clock.now)

    def poll():
        clock.advance(hold)
        at = clock.now
        done = svc.poll()
        polls.append((at, done))
        return done

    drive(clock, [(t, i) for i, t in enumerate(schedule)], submit, poll)
    assert len(svc.queue) == 0
    return session, stamped, polls


def check_work_conserving(schedule, max_batch, stamped, polls):
    served = [fc.request_id for _, done in polls for fc in done]
    assert served == list(range(len(schedule)))         # FIFO, each once
    free_at = float("-inf")         # completion of the previous batch
    for at, done in polls:
        # Everything due when a poll begins is served by the time it ends.
        assert done[-1].request_id + 1 == sum(t <= at for t in schedule)
        i = 0
        while i < len(done):
            size = done[i].batch_size
            batch = done[i:i + size]
            i += size
            assert all(fc.batch_size == size for fc in batch)
            # Chunks of a backlog are full; only the last may be partial.
            assert size == max_batch or (size < max_batch and i == len(done))
            due = schedule[batch[0].request_id]
            if due >= free_at:              # arrived at an idle server
                assert batch[0].queue_wait == 0.0
            # Never idle with a request pending, never two forwards at once.
            dispatched = max(due, free_at)
            free_at = dispatched + batch_cost(size)
            for fc in batch:
                arrived = stamped[fc.request_id]
                assert arrived + fc.queue_wait == pytest.approx(
                    dispatched, abs=1e-12)
                assert arrived + fc.latency == pytest.approx(
                    free_at, abs=1e-12)


#: Arrival gaps in microseconds; 0 (same instant) is over-represented, the
#: rest straddle the 0.6 to 2.0 ms a batch costs.
GAPS = st.lists(st.one_of(st.just(0), st.integers(0, 3000)),
                min_size=1, max_size=40)


class TestWorkConservingPolicy:
    @settings(max_examples=200, deadline=None)
    @given(gaps=GAPS, max_batch=st.integers(1, 8))
    def test_any_schedule_is_served_work_conserving(self, gaps, max_batch):
        schedule = (np.cumsum(gaps) * 1e-6).tolist()
        _, *observed = run_schedule(schedule, max_batch)
        check_work_conserving(schedule, max_batch, *observed)

    @pytest.mark.parametrize("mutant", [
        dict(hold=1e-3),                        # the timer, re-introduced
        dict(drive=poll_after_every_submit),    # the parent's drivers
    ], ids=["hold", "poll_after_every_submit"])
    def test_the_properties_bite(self, mutant):
        schedule = [1e-3, 1e-3, 5e-3]
        _, *observed = run_schedule(schedule, 4, **mutant)
        with pytest.raises(AssertionError):
            check_work_conserving(schedule, 4, *observed)

    def test_same_instant_shares_one_forward(self):
        """Two requests due in the same instant are one batch-2 forward,
        even when two fill the queue: ``submit`` must not dispatch."""
        session, _, polls = run_schedule([1e-3, 1e-3], 2)
        assert session.predicts == 1
        assert [fc.batch_size for _, done in polls for fc in done] == [2, 2]

    def test_submit_never_dispatches(self):
        session = ToySession(max_batch=8)
        svc = ForecastService(session, max_batch=2, service_time=batch_cost)
        for _ in range(5):
            svc.submit(np.zeros((H, N, F)))
        assert session.predicts == 0 and svc.stats.batches == 0
        assert len(svc.queue) == 5
        assert [fc.batch_size for fc in svc.poll()] == [2, 2, 2, 2, 1]
        assert svc.flush() == [] and session.predicts == 3

    def test_closed_loop_fills_the_batch(self):
        """8 clients against ``max_batch=8``: they start together and each
        round's completions free all 8 at once, so every batch is full
        from the first round on."""
        svc = ForecastService(ToySession(max_batch=8), max_batch=8,
                              service_time=batch_cost)
        gen = LoadGenerator(svc, np.zeros((4, H, N, F)), seed=0)
        report = gen.closed_loop(requests=64, concurrency=8)
        assert report.requests == 64 and report.batches == 8
        assert report.mean_batch_size == 8.0
        assert report.queue_wait_mean == 0.0
