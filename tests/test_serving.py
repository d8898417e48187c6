"""Tests for the online forecast-serving subsystem (``repro.serving``).

The load-bearing guarantees:

- micro-batched predictions match single-request inference (the
  batching layer is pure plumbing);
- the streaming feature store reproduces the offline preprocessing
  pipeline bitwise;
- the queue is work-conserving: whatever is due shares one forward, and
  nothing waits on an idle server.
"""

import heapq
import importlib
import inspect
import os
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunSpec, run, serve
from repro.preprocessing.index_batching import IndexDataset
from repro.serving import (
    FeatureStore,
    ManualClock,
    MicroBatchQueue,
    ModelSession,
)
from repro.serving.loadgen import _serve_arrivals
from repro.serving.service import ForecastService
from repro.serving.session import build_local_session
from repro.training.checkpoint import save_checkpoint
from repro.utils.errors import SessionFailure, ShapeError
from tests.test_resilience import H, N, F, DoomedSession, ToySession

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reading_leaves_the_ring_unchanged(self, trained,
                                                          bad):
        """A non-finite row (or timestamp) is refused before the ring
        write, so the next ``horizon`` windows stay finite and bitwise
        equal to a store that never saw it."""
        ds = trained.artifacts.dataset
        scaler = trained.artifacts.loaders.scaler
        store = FeatureStore.for_dataset(ds, scaler, capacity=6)
        clean = FeatureStore.for_dataset(ds, scaler, capacity=6)
        for values, ts in zip(ds.signals[:8], ds.timestamps[:8]):
            store.ingest(values, float(ts))
            clean.ingest(values, float(ts))
        ring, head = store._ring.copy(), store._head
        row = ds.signals[8].astype(np.float64)
        row[3, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            store.ingest(row, float(ds.timestamps[8]))
        with pytest.raises(ValueError, match="non-finite"):
            store.ingest(ds.signals[8], bad)
        np.testing.assert_array_equal(store._ring, ring)
        assert (store._head, store.size, store.total_ingested) == \
            (head, 6, 8)
        np.testing.assert_array_equal(store.window(4), clean.window(4))


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
    def test_serve_rejects_unknown_keywords(self, trained):
        """A typo'd knob names itself at the call instead of being
        swallowed by the session builder."""
        with pytest.raises(TypeError, match="max_bach"):
            serve(trained, max_bach=4)
        with pytest.raises(TypeError, match="stor_capacity"):
            serve(trained, stor_capacity=3)
        with pytest.raises(TypeError, match="num_standby"):
            serve(trained, num_standby=1)
        svc = serve(trained, store_capacity=8)
        assert svc.session.store.capacity == 8

    def test_store_below_horizon_fails_at_build(self, trained):
        """A ring shorter than the horizon can never hold a window, so it
        is refused when built; one horizon is enough to stream."""
        horizon = trained.artifacts.model.horizon
        with pytest.raises(ValueError,
                           match=f"capacity {horizon - 1} .*horizon {horizon}"):
            serve(trained, store_capacity=horizon - 1)
        svc = serve(trained, store_capacity=horizon)
        ds = trained.artifacts.dataset
        with pytest.raises(RuntimeError, match="ingest more history"):
            svc.forecast_streamed()
        for values, ts in zip(ds.signals[:horizon], ds.timestamps[:horizon]):
            svc.ingest(values, float(ts))
        assert svc.forecast_streamed().shape == (horizon, ds.num_nodes)

    def test_window_none_served_from_the_store(self, trained):
        """A ``window=None`` request reads the current window from the
        session's store and answers what the streamed forecast does."""
        ds = trained.artifacts.dataset
        svc = serve(trained, max_batch=4)
        warm = 2 * svc.session.horizon
        for values, ts in zip(ds.signals[-warm:], ds.timestamps[-warm:]):
            svc.ingest(values, float(ts))
        np.testing.assert_array_equal(svc.forecast(None).predictions,
                                      svc.forecast_streamed())

    def test_current_window_is_a_snapshot(self, trained):
        """A queued request keeps the window it was submitted with: later
        ingests must not mutate it (current_window returns a copy)."""
        ds = trained.artifacts.dataset
        svc = serve(trained, max_batch=4)
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

    def test_builder_passes_domain_not_feature_guess(self, trained):
        """``serve`` builds the store from the dataset's domain; the
        in_features==2 heuristic is only the dataset-free fallback."""
        svc = serve(trained)
        assert svc.session.add_time_feature \
            == (trained.artifacts.dataset.spec.domain == "traffic")
        assert svc.session.store.add_time_feature \
            == svc.session.add_time_feature

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


class TestSessionGuards:
    """What a session refuses, and what its builder attaches."""

    def test_new_store_defaults_to_four_horizons(self, trained):
        session = make_session(trained)
        store = session.new_store()
        assert store.capacity == 4 * session.horizon
        assert store.dtype == np.float32
        assert store.num_features == session.in_features

    def test_new_store_needs_a_scaler(self, trained):
        session = ModelSession(trained.artifacts.model, None)
        with pytest.raises(RuntimeError, match="no scaler"):
            session.new_store()

    def test_attach_store_rejects_mismatched_shape(self, trained):
        session = make_session(trained)
        ds = trained.artifacts.dataset
        wrong = FeatureStore(trained.artifacts.loaders.scaler,
                             num_nodes=ds.num_nodes + 1,
                             raw_features=ds.raw_features, capacity=8,
                             add_time_feature=session.add_time_feature)
        with pytest.raises(ShapeError, match="does not match model"):
            session.attach_store(wrong)
        assert session.store is None

    def test_ingest_without_a_store_is_refused(self, trained):
        session = make_session(trained)
        ds = trained.artifacts.dataset
        with pytest.raises(RuntimeError, match="no FeatureStore"):
            session.ingest(ds.signals[0], float(ds.timestamps[0]))

    def test_current_window_without_a_store_is_refused(self, trained):
        with pytest.raises(RuntimeError, match="no FeatureStore"):
            make_session(trained).current_window()

    def test_stage_rejects_an_empty_batch(self, trained):
        session = make_session(trained)
        with pytest.raises(ValueError, match="batch must be >= 1"):
            session.stage(0)
        assert len(session._in_buf) == 0

    def test_original_units_need_a_scaler(self, trained, pool):
        session = ModelSession(trained.artifacts.model, None)
        preds = session.predict(pool[:1])
        with pytest.raises(RuntimeError, match="no scaler"):
            session.to_original_units(preds)

    def test_predict_accepts_one_unbatched_window(self, trained, pool):
        session = make_session(trained)
        one = session.predict(pool[0]).copy()
        assert one.shape[0] == 1
        np.testing.assert_array_equal(one, session.predict(pool[:1]))

    def test_session_without_dataset_has_no_store(self, trained):
        session = build_local_session(
            trained.artifacts.model, trained.artifacts.loaders.scaler,
            None, trained.spec)
        assert session.store is None
        # the dataset-free half of the time-of-day rule
        assert session.add_time_feature == (session.in_features == 2)

    def test_session_without_scaler_has_no_store(self, trained):
        ds = trained.artifacts.dataset
        session = build_local_session(trained.artifacts.model, None, ds,
                                      trained.spec)
        assert session.store is None
        assert session.add_time_feature == (ds.spec.domain == "traffic")

    def test_from_checkpoint_takes_the_store_knobs(self, trained, ckpt):
        horizon = trained.artifacts.model.horizon
        session = ModelSession.from_checkpoint(
            ckpt, store_capacity=horizon, store_dtype="float16")
        assert session.store.capacity == horizon
        assert session.store.dtype == np.float16
        with pytest.raises(ValueError, match="below the model horizon"):
            ModelSession.from_checkpoint(ckpt, store_capacity=horizon - 1)


class TestLocalServingParity:
    """Every serving replica holds the whole model over the whole graph;
    how the queue cuts the traffic and how the store's ring wraps must
    never change an answer."""

    @pytest.mark.parametrize("max_batch", [1, 2, 4])
    def test_queue_cap_never_changes_predictions(self, trained, pool,
                                                 max_batch):
        session = make_session(trained)
        singles = session.to_original_units(np.stack(
            [session.predict(pool[i:i + 1])[0].copy() for i in range(8)]))
        svc = serve(trained, max_batch=max_batch)
        ids = [svc.submit(pool[i]) for i in range(8)]
        done = svc.flush()
        assert [fc.request_id for fc in done] == ids
        assert [fc.batch_size for fc in done] == [max_batch] * 8
        assert svc.stats.batches == 8 // max_batch
        for i, fc in enumerate(done):
            np.testing.assert_allclose(fc.predictions, singles[i],
                                       atol=1e-6, rtol=0)

    @pytest.mark.parametrize("max_batch", [1, 2, 4])
    def test_one_forward_per_dispatch(self, trained, pool, max_batch):
        svc = serve(trained, max_batch=max_batch)
        session = svc.session
        forwards = []
        inner = session._forward

        def counting(x):
            forwards.append(len(x))
            return inner(x)

        session._forward = counting
        for i in range(2 * max_batch):
            svc.submit(pool[i])
        assert len(svc.poll()) == 2 * max_batch
        assert forwards == [max_batch, max_batch]
        assert session.requests_served == 2 * max_batch

    @pytest.mark.parametrize("extra", [0, 1, 5],
                             ids=["exact", "one-over", "wrapped"])
    def test_streamed_forecast_matches_offline_window(self, trained, extra):
        """A ring of ``horizon + extra`` rows, fed ``3 * horizon + 2``
        observations, forecasts what the offline pipeline's window over
        the same rows does, bitwise."""
        ds = trained.artifacts.dataset
        horizon = trained.artifacts.model.horizon
        idx = IndexDataset.from_dataset(ds, horizon=horizon,
                                        store_dtype=np.float32)
        scaler = trained.artifacts.loaders.scaler
        np.testing.assert_array_equal(idx.scaler.mean_, scaler.mean_)
        np.testing.assert_array_equal(idx.scaler.std_, scaler.std_)
        svc = serve(trained, store_capacity=horizon + extra)
        rows = 3 * horizon + 2
        for values, ts in zip(ds.signals[:rows], ds.timestamps[:rows]):
            svc.ingest(values, float(ts))
        window = idx.data[rows - horizon:rows]
        np.testing.assert_array_equal(svc.session.current_window(), window)
        expected = svc.session.to_original_units(
            make_session(trained).predict(window[None])[0])
        np.testing.assert_array_equal(svc.forecast_streamed(), expected)


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

    callables = {}
    for module in [api_serving] + [
            importlib.import_module(info.name) for info in
            pkgutil.walk_packages(repro.serving.__path__, "repro.serving.")]:
        callables.update(_public_callables(module))
    assert "build_local_session" in callables
    takers = {name for name, fn in callables.items()
              if "max_batch" in inspect.signature(fn).parameters}
    assert takers == {"serve", "build_gateway", "Gateway", "Deployment",
                      "ForecastService", "MicroBatchQueue"}


# ---------------------------------------------------------------------------
# The batching policy, as properties
# ---------------------------------------------------------------------------
def batch_cost(n: int) -> float:
    return 4e-4 + 2e-4 * n


def toy_service(session=None, max_batch=4):
    return ForecastService(session or ToySession(), max_batch=max_batch,
                           service_time=batch_cost)


def toy_pool(n=4):
    return np.random.default_rng(0).normal(size=(n, H, N, F))


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
        """8 clients against ``max_batch=8``: they submit together and each
        round's completions free all 8 at once, so every batch is full
        and none waits on an idle server."""
        svc = ForecastService(ToySession(max_batch=8), max_batch=8,
                              service_time=batch_cost)
        done = []
        for _ in range(8):
            for _ in range(8):
                svc.submit(np.zeros((H, N, F)))
            done += svc.poll()
        assert len(done) == 64 and svc.stats.batches == 8
        assert [fc.batch_size for fc in done] == [8] * 64
        assert [fc.queue_wait for fc in done] == [0.0] * 64


class TestServiceFailurePath:
    """A dispatch whose session dies loses nothing: the service charges
    the attempt and buffers the requests for the gateway's ladder."""

    def test_failed_dispatch_keeps_the_requests_and_windows(self):
        svc = toy_service(DoomedSession(ToySession()))
        windows = toy_pool(3)
        ids = [svc.submit(w) for w in windows]
        assert svc.poll() == []
        (failed, exc), = svc.take_failed()
        assert isinstance(exc, SessionFailure)
        assert [r.request_id for r in failed] == ids
        for req, w in zip(failed, windows):
            np.testing.assert_array_equal(req.window, w)
        assert svc.take_failed() == []

    def test_failed_dispatch_is_charged_not_counted_served(self):
        svc = toy_service(DoomedSession(ToySession()))
        for w in toy_pool(3):
            svc.submit(w)
        svc.poll()
        assert svc.stats.batches == 1 and svc.stats.failed_batches == 1
        assert svc.stats.failures == 3 and svc.stats.requests == 0
        assert svc.stats.busy_seconds == batch_cost(3)
        assert svc.clock.now == batch_cost(3)
        assert svc.last_served == []

    def test_forecast_raises_for_its_own_request(self):
        svc = toy_service(DoomedSession(ToySession()))
        with pytest.raises(SessionFailure, match="request 0 failed"):
            svc.forecast(toy_pool(1)[0])

    @pytest.mark.parametrize("fill", ["1", None, np.nan, np.inf, -np.inf,
                                      True, 1 + 0j])
    def test_malformed_window_fails_its_own_caller(self, fill):
        """``submit`` and ``forecast`` refuse non-numeric and non-finite
        windows; the good request queued first is served untouched."""
        svc = toy_service()
        good = toy_pool(1)[0]
        rid = svc.submit(good)
        bad = np.full(good.shape, fill)
        with pytest.raises(ValueError):
            svc.submit(bad)
        with pytest.raises(ValueError):
            svc.forecast(bad)
        (fc,) = svc.poll()
        assert fc.request_id == rid
        np.testing.assert_array_equal(fc.predictions, 2.0 * good[..., 0])
        assert svc.take_failed() == []

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16])
    def test_integer_window_is_served_like_its_float_twin(self, dtype):
        """Integer kinds pass the door check: readings are numbers, and
        the answer is bitwise the one for the same values as floats."""
        good = np.round(np.abs(toy_pool(1)[0]) * 10)
        svc = toy_service()
        fc = svc.forecast(good.astype(dtype))
        np.testing.assert_array_equal(fc.predictions,
                                      toy_service().forecast(good).predictions)
        np.testing.assert_array_equal(fc.predictions, 2.0 * good[..., 0])

    def test_window_none_needs_a_streaming_session(self):
        """``window=None`` means the session's streamed state; a session
        without ``current_window`` says so instead of serving garbage."""
        svc = toy_service()
        with pytest.raises(RuntimeError, match="current_window"):
            svc.forecast(None)

    def test_last_served_logs_each_dispatch(self):
        svc = toy_service(max_batch=2)
        for w in toy_pool(5):
            svc.submit(w)
        assert len(svc.poll()) == 5
        assert svc.last_served == [(2, batch_cost(2)), (2, batch_cost(2)),
                                   (1, batch_cost(1))]
        assert svc.stats.busy_seconds == pytest.approx(
            2 * batch_cost(2) + batch_cost(1), abs=1e-15)
