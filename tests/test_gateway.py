"""Tests for the multi-tenant serving gateway (``repro.serving.gateway``).

The load-bearing guarantees:

- the gateway is pure plumbing: responses match direct ``ForecastService``
  answers bitwise, and cache hits are bitwise equal to recomputation;
- tenants are isolated — keys, quotas, and feature stores never leak
  across tenants;
- admission control sheds deterministically under overload and never
  below capacity;
- blue-green swaps drain every in-flight request (zero drops).
"""

import inspect
import time

import numpy as np
import pytest

from repro.api import RunSpec, build_gateway, run, serve
from repro.api import session_source
from repro.runtime import FaultPlan
from repro.serving import (
    AuthError,
    FeatureStore,
    Gateway,
    GatewayLoadGenerator,
    LoadReport,
    ManualClock,
    MicroBatchQueue,
    ModelSession,
    TenantStream,
)
from repro.serving.gateway import (
    AdmissionController,
    ResultCache,
    TenantManager,
    cache_key,
    window_fingerprint,
)
from repro.serving.gateway.admission import MAX_QUEUE_DEPTH
from repro.serving.gateway.tenancy import BURST
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
    xb, _ = test.batch_at(np.arange(min(test.num_snapshots, 32)))
    return xb.copy()


def toy_gateway(**kw):
    """A gateway over one deterministic toy deployment, ``toy``, and one
    tenant, ``ops``: load-generator cases that need no trained model."""
    gw = Gateway(clock=ManualClock(), max_batch=4,
                 service_time=lambda n: 4e-4 + 2e-4 * n, **kw)
    gw.add_deployment("toy", ToySession())
    gw.add_tenant("ops")
    return gw


def toy_pool(n=4):
    return np.random.default_rng(0).normal(size=(n, H, N, F))


def toy_stream(**kw):
    return TenantStream(api_key="key-ops", deployment="toy", **kw)


def make_gateway(trained, **kw):
    kw.setdefault("clock", ManualClock())
    kw.setdefault("max_batch", 8)
    kw.setdefault("service_time", lambda n: 4e-4 + 2e-4 * n)
    kw.setdefault("tenants", ["ops", "research"])
    return build_gateway({"bay": trained}, **kw)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_fingerprint_sensitive_to_content_shape_dtype(self):
        w = np.arange(24, dtype=np.float64).reshape(4, 3, 2)
        assert window_fingerprint(w) == window_fingerprint(w.copy())
        assert window_fingerprint(w) != window_fingerprint(w + 1e-12)
        assert window_fingerprint(w) != window_fingerprint(
            w.reshape(4, 6, 1))
        assert window_fingerprint(w) != window_fingerprint(
            w.astype(np.float32))

    def test_key_includes_deployment_and_version(self):
        w = np.ones((2, 2, 2))
        assert cache_key("a", "v1", w) != cache_key("b", "v1", w)
        assert cache_key("a", "v1", w) != cache_key("a", "v2", w)

    def test_hit_is_bitwise_and_a_copy(self):
        clock = ManualClock()
        cache = ResultCache(ttl=10.0, clock=clock)
        key = cache_key("d", "v1", np.ones((2, 2, 2)))
        value = np.random.default_rng(0).normal(size=(4, 8))
        cache.put(key, value)
        hit = cache.get(key)
        np.testing.assert_array_equal(hit, value)
        hit[0, 0] = 1e9                     # mutating a hit must not poison
        np.testing.assert_array_equal(cache.get(key), value)
        assert cache.stats.hits == 2 and cache.stats.misses == 0

    def test_ttl_expiry_on_the_clock(self):
        clock = ManualClock()
        cache = ResultCache(ttl=5.0, clock=clock)
        key = cache_key("d", "v1", np.ones((2, 2, 2)))
        cache.put(key, np.zeros((4, 8)))
        clock.advance(4.9)
        assert cache.get(key) is not None
        clock.advance(0.2)
        assert cache.get(key) is None
        assert cache.stats.expirations == 1

    def test_lru_eviction_at_capacity(self):
        clock = ManualClock()
        cache = ResultCache(ttl=100.0, max_entries=2, clock=clock)
        keys = [cache_key("d", "v1", np.full((1, 1, 1), i))
                for i in range(3)]
        cache.put(keys[0], np.zeros(1))
        cache.put(keys[1], np.zeros(1))
        assert cache.get(keys[0]) is not None   # 0 is now warmest
        cache.put(keys[2], np.zeros(1))         # evicts 1, the coldest
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None
        assert cache.stats.evictions == 1

    def test_invalidate_by_deployment(self):
        clock = ManualClock()
        cache = ResultCache(ttl=100.0, clock=clock)
        ka = cache_key("a", "v1", np.ones((1, 1, 1)))
        kb = cache_key("b", "v1", np.ones((1, 1, 1)))
        cache.put(ka, np.zeros(1))
        cache.put(kb, np.zeros(1))
        assert cache.invalidate("a") == 1
        assert cache.get(ka) is None and cache.get(kb) is not None
        assert cache.invalidate() == 1          # clear the rest


# ---------------------------------------------------------------------------
# Tenancy
# ---------------------------------------------------------------------------
class TestTenancy:
    def test_auth_and_failure_accounting(self):
        mgr = TenantManager(ManualClock())
        tenant = mgr.register("ops")
        assert mgr.authenticate(tenant.api_key) is tenant
        with pytest.raises(AuthError):
            mgr.authenticate("wrong-key")
        assert mgr.auth_failures == 1

    def test_duplicate_ids_and_keys_rejected(self):
        mgr = TenantManager(ManualClock())
        mgr.register("ops", api_key="k1")
        with pytest.raises(ValueError, match="already registered"):
            mgr.register("ops", api_key="k2")
        with pytest.raises(ValueError, match="api key"):
            mgr.register("other", api_key="k1")

    def test_token_bucket_is_deterministic(self):
        clock = ManualClock()
        mgr = TenantManager(clock)
        tenant = mgr.register("ops", rate_qps=10.0)
        # BURST drains, then refills at exactly rate_qps.
        assert all(tenant.try_spend_token(clock()) for _ in range(BURST))
        assert not tenant.try_spend_token(clock())
        clock.advance(0.1)                      # one token back at 10 qps
        assert tenant.try_spend_token(clock())
        assert not tenant.try_spend_token(clock())

    def test_bucket_refills_only_up_to_burst(self):
        clock = ManualClock()
        tenant = TenantManager(clock).register("ops", rate_qps=10.0)
        assert tenant.try_spend_token(clock())
        clock.advance(100.0)                    # 1,000 tokens' worth idle
        assert all(tenant.try_spend_token(clock()) for _ in range(BURST))
        assert not tenant.try_spend_token(clock())

    def test_unlimited_tenant_never_rejected(self):
        clock = ManualClock()
        tenant = TenantManager(clock).register("ops")
        assert all(tenant.try_spend_token(clock()) for _ in range(1000))


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def make(self):
        clock = ManualClock()
        queue = MicroBatchQueue(max_batch=4, clock=clock)
        return clock, queue, AdmissionController(clock)

    def test_no_estimate_sheds_only_the_already_late(self):
        """Before any dispatch the service-time prior is 0 and nothing is
        held, so the projection is 0: a request sheds only if its
        deadline has already passed."""
        clock, queue, adm = self.make()
        clock.advance(1.0)
        assert adm.estimate("d") == 0.0
        assert adm.projected_latency(queue, "d") == 0.0
        assert adm.admit(queue, tenant="t", deployment="d",
                         deadline=clock() + 1e-9) is None
        decision = adm.admit(queue, tenant="t", deployment="d",
                             deadline=clock() - 1e-9)
        assert decision is not None and decision.reason == "deadline"

    def test_projection_math(self):
        clock, queue, adm = self.make()
        adm.seed_estimate("d", 0.010)
        # Empty queue, idle server: one batch, no wait.
        assert adm.projected_latency(queue, "d") == pytest.approx(0.010)
        for _ in range(3):
            queue.submit(np.zeros(1))
        # Depth 3: ours is the fourth of the same batch of 4.
        assert adm.projected_latency(queue, "d") == pytest.approx(0.010)
        queue.submit(np.zeros(1))
        # Depth 4: one full batch ahead, ours rides the next one.
        assert adm.projected_latency(queue, "d") == pytest.approx(0.020)
        for _ in range(4):
            queue.submit(np.zeros(1))
        assert adm.projected_latency(queue, "d") == pytest.approx(0.030)

    def test_deadline_shed_recorded(self):
        clock, queue, adm = self.make()
        adm.seed_estimate("d", 0.010)
        decision = adm.admit(queue, tenant="ops", deployment="d",
                             deadline=clock() + 0.005)
        assert decision is not None and decision.reason == "deadline"
        assert adm.admit(queue, tenant="ops", deployment="d",
                         deadline=clock() + 0.5) is None
        assert adm.shed_by_tenant() == {"ops": 1}
        assert adm.shed_by_reason() == {"deadline": 1}

    def test_capacity_shed_ignores_deadline(self):
        clock, queue, adm = self.make()
        for _ in range(MAX_QUEUE_DEPTH - 1):
            queue.submit(np.zeros(1))
        assert adm.admit(queue, tenant="t", deployment="d",
                         deadline=None) is None
        queue.submit(np.zeros(1))
        decision = adm.admit(queue, tenant="t", deployment="d",
                             deadline=None)
        assert decision is not None and decision.reason == "capacity"

    def test_ewma_observation(self):
        _, _, adm = self.make()
        adm.observe("d", 0.010)
        adm.observe("d", 0.020)
        assert adm.estimate("d") == pytest.approx(0.012)

    def test_partial_batches_never_lower_the_estimate(self):
        """The estimate is of a full batch.  Every drain ends in a partial
        one, which costs less: folding those in would under-project every
        full batch ahead of a request."""
        _, _, adm = self.make()
        adm.observe("d", 0.010)
        adm.observe("d", 0.004, full=False)
        assert adm.estimate("d") == 0.010
        adm.observe("d", 0.012, full=False)     # a lower bound above it
        assert adm.estimate("d") == 0.012
        adm.observe("d", 0.010)
        assert adm.estimate("d") == pytest.approx(0.0116)
        adm.observe("e", 0.004, full=False)     # better than knowing nothing
        assert adm.estimate("e") == 0.004

    def test_shed_requests_are_counted_not_kept(self):
        clock, queue, adm = self.make()
        adm.seed_estimate("d", 0.010)
        held = set(vars(adm))
        for i in range(1000):
            decision = adm.admit(queue, tenant=f"t{i % 2}", deployment="d",
                                 deadline=clock() + 0.005)
            assert decision.reason == "deadline"
        assert adm.shed_by_reason() == {"deadline": 1000}
        assert adm.shed_by_tenant() == {"t0": 500, "t1": 500}
        # Nothing per-request outlives the call: the same attributes,
        # and every container among them is keyed by tenant or reason.
        assert set(vars(adm)) == held
        assert all(len(v) <= 2 for v in vars(adm).values()
                   if hasattr(v, "__len__"))


# ---------------------------------------------------------------------------
# Deployments
# ---------------------------------------------------------------------------
class TestDeployments:
    def test_cold_deployment_builds_lazily(self, trained):
        gw = make_gateway(trained)
        calls = []
        session = gw.deployments.get("bay").session

        def factory():
            calls.append(1)
            return session

        dep = gw.add_deployment("lazy", factory, state="cold")
        assert not calls and dep.state == "cold"
        dep.warm()
        assert calls == [1] and dep.state == "warm"

    def test_cold_requires_rebuildable_source(self, trained):
        gw = make_gateway(trained)
        session = gw.deployments.get("bay").session
        with pytest.raises(ValueError, match="cold"):
            gw.add_deployment("bad", session, state="cold")

    def test_cool_refuses_pending_work(self, trained, pool):
        gw = make_gateway(trained)
        session = gw.deployments.get("bay").session
        dep = gw.add_deployment("d2", lambda: session)
        gw.submit("key-ops", "d2", pool[0])
        with pytest.raises(RuntimeError, match="in-flight"):
            dep.cool()
        gw.flush()
        dep.cool()
        assert dep.state == "cold"

    def test_swap_requires_new_version(self, trained):
        gw = make_gateway(trained)
        session = gw.deployments.get("bay").session
        with pytest.raises(ValueError, match="version"):
            gw.swap("bay", lambda: session, version="v1")

    def test_swap_rejects_shape_mismatch(self, trained):
        gw = make_gateway(trained)
        session = gw.deployments.get("bay").session

        class Mismatched:
            predict = staticmethod(lambda x: x)
            horizon = session.horizon + 1
            num_nodes = session.num_nodes
            in_features = session.in_features

        with pytest.raises(ShapeError):
            gw.swap("bay", Mismatched(), version="v2")

    def test_duplicate_deployment_rejected(self, trained):
        gw = make_gateway(trained)
        with pytest.raises(ValueError, match="already registered"):
            gw.add_deployment("bay", lambda: None)


# ---------------------------------------------------------------------------
# The gateway itself
# ---------------------------------------------------------------------------
class TestGateway:
    def test_matches_direct_service_bitwise(self, trained, pool):
        """Acceptance: the gateway is pure plumbing over ForecastService."""
        gw = make_gateway(trained)
        direct = serve(trained, max_batch=8)
        resp = gw.request("key-ops", "bay", pool[0])
        np.testing.assert_array_equal(resp.forecast.predictions,
                                      direct.forecast(pool[0]).predictions)

    def test_requires_valid_api_key(self, trained, pool):
        gw = make_gateway(trained)
        with pytest.raises(AuthError):
            gw.request("not-a-key", "bay", pool[0])

    def test_quota_rejection_status(self, trained, pool):
        gw = make_gateway(trained, tenants=[
            {"tenant_id": "ops", "rate_qps": 1.0}])
        first = gw.request("key-ops", "bay", pool[0])
        rest = [gw.submit("key-ops", "bay", pool[0]) for _ in range(BURST)]
        assert first.ok
        assert [r.status for r in rest] == \
            ["admitted"] * (BURST - 1) + ["rejected_quota"]
        assert gw.stats.quota_rejected == 1

    def test_cache_hit_bitwise_and_cross_tenant(self, trained, pool):
        gw = make_gateway(trained, cache_ttl=60.0)
        first = gw.request("key-ops", "bay", pool[0])
        second = gw.request("key-ops", "bay", pool[0])
        cross = gw.request("key-research", "bay", pool[0])
        assert not first.cached and second.cached and cross.cached
        assert second.latency == 0.0
        np.testing.assert_array_equal(first.forecast.predictions,
                                      second.forecast.predictions)
        np.testing.assert_array_equal(first.forecast.predictions,
                                      cross.forecast.predictions)
        # ...and to what a cache-less gateway computes for the window.
        uncached = make_gateway(trained).request("key-ops", "bay", pool[0])
        np.testing.assert_array_equal(first.forecast.predictions,
                                      uncached.forecast.predictions)

    def test_tenant_stores_are_isolated(self, trained):
        gw = make_gateway(trained)
        ds = trained.artifacts.dataset
        for t in range(16):
            gw.ingest("key-ops", "bay", ds.signals[t], timestamp_minutes=5.0 * t)
        # research streamed nothing: its store must not exist, and a
        # windowless request must fail rather than read ops' data.
        ops_store = gw.tenants.get("ops").stores["bay"]
        assert "bay" not in gw.tenants.get("research").stores
        assert isinstance(ops_store, FeatureStore)
        with pytest.raises(RuntimeError, match="streamed nothing"):
            gw.request("key-research", "bay")
        assert gw.request("key-ops", "bay").ok

    def test_tenant_store_is_four_horizons_long(self, trained):
        """A tenant's private store is the session's default: four model
        horizons, so a long stream keeps only its latest rows."""
        gw = make_gateway(trained)
        ds = trained.artifacts.dataset
        horizon = gw.deployments.get("bay").session.horizon
        for t in range(5 * horizon):
            gw.ingest("key-ops", "bay", ds.signals[t],
                      timestamp_minutes=5.0 * t)
        store = gw.tenants.get("ops").stores["bay"]
        assert store.capacity == 4 * horizon
        assert store.size == 4 * horizon

    def test_request_without_deadline_sheds_only_at_depth(self):
        """A request without a deadline never sheds on the projection,
        however deep the backlog; the depth cap alone refuses it."""
        gw = toy_gateway()
        (w,) = toy_pool(1)
        for _ in range(8):
            assert gw.submit("key-ops", "toy", w).status == "admitted"
        hurried = gw.submit("key-ops", "toy", w, deadline=gw.clock() + 1e-3)
        assert (hurried.status, hurried.reason) == ("shed", "deadline")
        for _ in range(MAX_QUEUE_DEPTH - 8):
            assert gw.submit("key-ops", "toy", w).status == "admitted"
        over = gw.submit("key-ops", "toy", w)
        assert (over.status, over.reason) == ("shed", "capacity")
        assert len(gw.flush()) == MAX_QUEUE_DEPTH
        assert gw.admission.shed_by_reason() == {"deadline": 1,
                                                 "capacity": 1}

    def test_synthetic_service_time_seeds_admission_and_breaker(self):
        """A service-time model prices a full batch before any dispatch:
        admission projects from it and the breaker measures blowouts
        against it.  A measured deployment starts with neither."""
        gw = toy_gateway()
        full = 4e-4 + 2e-4 * gw.max_batch
        assert gw.admission.estimate("toy") == pytest.approx(full)
        assert gw.resilience.breaker("toy").baseline == pytest.approx(full)
        measured = Gateway(clock=ManualClock(), max_batch=4)
        measured.add_deployment("toy", ToySession())
        assert measured.admission.estimate("toy") == 0.0
        assert measured.resilience.breaker("toy").baseline is None

    def test_sheds_on_hopeless_deadline(self, trained, pool):
        gw = make_gateway(trained)
        resp = gw.submit("key-ops", "bay", pool[0],
                         deadline=gw.clock() + 1e-6)
        assert resp.status == "shed" and resp.reason == "deadline"
        assert gw.stats.shed == 1
        assert gw.tenants.get("ops").stats.shed == 1

    def test_swap_drains_in_flight_and_invalidates_cache(self, trained, pool):
        gw = make_gateway(trained, cache_ttl=60.0)
        session = gw.deployments.get("bay").session
        admitted = [gw.submit("key-ops", "bay", pool[i]) for i in range(5)]
        assert all(r.status == "admitted" for r in admitted)
        record = gw.swap("bay", lambda: session, version="v2")
        assert record.drained == 5 and record.dropped == 0
        done = gw.poll()
        assert {r.request_id for r in done} == \
            {r.request_id for r in admitted}
        assert all(r.status == "ok" for r in done)
        # v1 cache entries are gone; the same window recomputes under v2.
        resp = gw.request("key-ops", "bay", pool[0])
        assert resp.ok and not resp.cached and resp.version == "v2"
        assert gw.stats.completed == gw.stats.admitted

    @pytest.mark.parametrize("bad", [
        lambda w: np.full(w.shape, "1", dtype="<U1"),
        lambda w: np.full(w.shape, None, dtype=object),
        lambda w: np.where(np.arange(w.size).reshape(w.shape) == 5,
                           np.nan, w),
        lambda w: np.where(np.arange(w.size).reshape(w.shape) == 5,
                           np.inf, w),
    ], ids=["str", "object", "nan", "inf"])
    def test_malformed_window_is_refused_at_submit(self, trained, pool,
                                                   bad):
        """A window that is not numeric and finite fails its own submit;
        the good request queued before it still completes, and nothing
        is cached or left pending."""
        gw = make_gateway(trained, max_batch=4, cache_ttl=60.0)
        good = gw.submit("key-ops", "bay", pool[0])
        assert good.status == "admitted"
        with pytest.raises(ValueError):
            gw.submit("key-ops", "bay", bad(pool[1]))
        (done,) = gw.poll()
        assert done.request_id == good.request_id and done.status == "ok"
        assert np.isfinite(done.forecast.predictions).all()
        assert not gw._pending and len(gw.cache) == 1
        assert gw.stats.admitted == gw.stats.completed == 1

    def test_one_batch_cap_from_gateway_to_queue(self, trained, pool):
        """The gateway's cap is the queue's, whatever the session has
        staged before: a session first used at batch 4 serves a backlog
        of 16 as two batches of 8, and admission is seeded with (and
        keeps) what a batch of 8 costs."""
        def cost(n):
            return 4e-4 + 2e-4 * n

        session = ModelSession(trained.artifacts.model,
                               trained.artifacts.loaders.scaler)
        session.predict(pool[:4])
        gw = Gateway(clock=ManualClock(), max_batch=8, service_time=cost)
        gw.add_deployment("bay", session)
        key = gw.add_tenant("ops").api_key
        for i in range(16):
            assert gw.submit(key, "bay", pool[i % len(pool)]).status \
                == "admitted"
        done = gw.flush()
        assert [r.forecast.batch_size for r in done] == [8] * 16
        assert gw.deployments["bay"].service.stats.batches == 2
        assert gw.admission.estimate("bay") == pytest.approx(cost(8))

    def test_describe_covers_every_surface(self, trained, pool):
        gw = make_gateway(trained, cache_ttl=60.0)
        gw.request("key-ops", "bay", pool[0])
        d = gw.describe()
        assert d["stats"]["completed"] == 1
        assert "bay" in d["deployments"]
        assert set(d["tenants"]) == {"ops", "research"}
        assert d["cache"]["misses"] == 1


class TestWholeGraphReplicas:
    """Every deployment serves the whole sensor graph from its own
    session; robustness is a second deployment behind a fallback route,
    never a split of the graph.  Faults stay inside the deployment they
    name."""

    def pair(self, trained, plan=None):
        return build_gateway(
            {"bay": trained, "standby": trained}, tenants=["ops"],
            clock=ManualClock(), max_batch=4,
            service_time=lambda n: 1e-3 + 1e-4 * n,
            fallbacks={"bay": "standby"}, fault_plan=plan)

    def test_both_replicas_dead_fail_explicitly(self, trained, pool):
        plan = (FaultPlan().session_crash("bay", at_dispatch=0)
                .session_crash("standby", at_dispatch=0))
        gw = self.pair(trained, plan)
        key = gw.tenants.get("ops").api_key
        resp = gw.request(key, "bay", pool[0])
        assert resp.status == "failed" and resp.forecast is None
        assert gw.stats.failed == 1 and gw.stats.requests == 1
        assert not gw._pending

    def test_a_dead_fallback_leaves_the_primary_serving(self, trained,
                                                        pool):
        calm = self.pair(trained)
        gw = self.pair(trained,
                       FaultPlan().session_crash("standby", at_dispatch=0))
        key = gw.tenants.get("ops").api_key
        calm_key = calm.tenants.get("ops").api_key
        for i in range(6):
            resp = gw.request(key, "bay", pool[i])
            assert resp.status == "ok" and not resp.degraded_source
            np.testing.assert_array_equal(
                resp.forecast.predictions,
                calm.request(calm_key, "bay", pool[i]).forecast.predictions)
        assert gw.resilience.transitions() == []
        assert gw.stats.degraded == 0 and gw.stats.failed == 0

    def test_swaps_to_the_same_model_keep_answers_bitwise(self, trained,
                                                          pool):
        gw = make_gateway(trained)
        before = [gw.request("key-ops", "bay", pool[i]).forecast.predictions
                  for i in range(4)]
        for version in ("v2", "v3"):
            gw.swap("bay", session_source(trained), version=version)
            after = [gw.request("key-ops", "bay", pool[i])
                     for i in range(4)]
            assert all(r.version == version for r in after)
            for a, b in zip(before, after):
                np.testing.assert_array_equal(a, b.forecast.predictions)
        assert gw.stats.swaps == 2

    def test_rejected_ingest_leaves_the_store_untouched(self, trained):
        ds = trained.artifacts.dataset
        rows = 2 * trained.artifacts.model.horizon
        clean, dirty = make_gateway(trained), make_gateway(trained)
        for i in range(rows):
            values, ts = ds.signals[i], float(ds.timestamps[i])
            clean.ingest("key-ops", "bay", values, ts)
            dirty.ingest("key-ops", "bay", values, ts)
            if i == rows // 2:
                with pytest.raises(ShapeError):
                    dirty.ingest("key-ops", "bay", values[:-1], ts)
        store = dirty.tenants.get("ops").stores["bay"]
        assert store.total_ingested == rows
        np.testing.assert_array_equal(
            dirty.request("key-ops", "bay").forecast.predictions,
            clean.request("key-ops", "bay").forecast.predictions)


class TestRequestPathPaysOnce:
    """Each per-window cost on the request path is paid once: one window
    check per service, one digest for the key and one for the stored
    forecast (or its verification on a hit), one unit inversion per
    batch."""

    def counting(self, monkeypatch):
        from repro.serving.gateway import result_cache
        from repro.serving.service import ForecastService

        calls = {"check_window": 0, "window_fingerprint": 0}

        def count(name, fn):
            def wrapped(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            return wrapped

        monkeypatch.setattr(ForecastService, "check_window",
                            count("check_window",
                                  ForecastService.check_window))
        monkeypatch.setattr(result_cache, "window_fingerprint",
                            count("window_fingerprint",
                                  result_cache.window_fingerprint))
        return calls

    def test_admitted_request_checks_once_and_digests_twice(
            self, trained, pool, monkeypatch):
        gw = make_gateway(trained, cache_ttl=60.0)
        calls = self.counting(monkeypatch)
        assert gw.submit("key-ops", "bay", pool[0]).status == "admitted"
        (done,) = gw.flush()
        assert done.status == "ok"
        assert calls == {"check_window": 1, "window_fingerprint": 2}

    def test_cache_hit_digests_twice(self, trained, pool, monkeypatch):
        gw = make_gateway(trained, cache_ttl=60.0)
        gw.request("key-ops", "bay", pool[0])
        calls = self.counting(monkeypatch)
        assert gw.submit("key-ops", "bay", pool[0]).status == "cached"
        assert calls == {"check_window": 1, "window_fingerprint": 2}

    def test_streamed_window_is_checked_once(self, trained, monkeypatch):
        gw = make_gateway(trained)
        ds = trained.artifacts.dataset
        for t in range(trained.artifacts.model.horizon):
            gw.ingest("key-ops", "bay", ds.signals[t], 5.0 * t)
        calls = self.counting(monkeypatch)
        assert gw.request("key-ops", "bay").ok
        assert calls["check_window"] == 1

    def test_fallback_reroute_checks_the_fallbacks_shape(self, trained,
                                                         pool):
        """A fallback whose model interface is not its primary's is not
        ready: a window it cannot take is answered ``failed``, and
        nothing is left pending."""
        big = run(RunSpec(**{**SPEC, "scale": "small"}))
        gw = build_gateway(
            {"bay": trained, "big": big}, tenants=["ops"],
            clock=ManualClock(), max_batch=4,
            service_time=lambda n: 1e-3 + 1e-4 * n,
            fallbacks={"bay": "big"},
            fault_plan=FaultPlan().session_crash("bay", at_dispatch=0))
        key = gw.tenants.get("ops").api_key
        assert gw.submit(key, "bay", pool[0]).status == "admitted"
        (done,) = gw.flush()
        assert (done.status, done.reason) == ("failed", "session_failure")
        assert not gw._pending
        assert not any(d.in_flight for d in gw.deployments.values())

    @pytest.mark.parametrize("scaled", [True, False],
                             ids=["scaler", "no-scaler"])
    def test_batch_inversion_is_per_row_bitwise(self, trained, pool,
                                                scaled):
        from repro.serving import ForecastService

        art = trained.artifacts
        session = ModelSession(art.model,
                               art.loaders.scaler if scaled else None)
        svc = ForecastService(session, max_batch=8)
        for i in range(5):
            svc.submit(pool[i])
        done = svc.poll()
        assert [fc.batch_size for fc in done] == [5] * 5
        preds = session.predict(pool[:5])
        expected = [session.to_original_units(preds[i]) if scaled
                    else preds[i, ..., 0] for i in range(5)]
        for fc, want in zip(done, expected):
            assert fc.predictions.flags.c_contiguous
            np.testing.assert_array_equal(fc.predictions, want)
        done[0].predictions[...] = 1e9      # rows are disjoint
        for fc, want in zip(done[1:], expected[1:]):
            np.testing.assert_array_equal(fc.predictions, want)

    def test_key_separates_byte_order_not_layout(self):
        w = np.arange(24, dtype=np.float32).reshape(4, 3, 2)
        assert (cache_key("a", "v1", w.astype(">f4"))
                != cache_key("a", "v1", w.astype("<f4")))
        wide = np.arange(48, dtype=np.float32).reshape(4, 3, 4)
        strided = wide[:, :, ::2]
        assert not strided.flags.c_contiguous
        assert (cache_key("a", "v1", strided)
                == cache_key("a", "v1", strided.copy()))


class TestGatewayAPI:
    def test_gateways_are_built_not_served(self, trained, pool):
        """One spelling: ``serve`` returns services, ``build_gateway``
        gateways; there is no server topology to pick."""
        with pytest.raises(TypeError, match="'server'"):
            serve(trained, server="gateway")
        gw = build_gateway({"default": trained}, clock=ManualClock(),
                           max_batch=8)
        assert isinstance(gw, Gateway)
        assert list(gw.deployments) == ["default"]
        resp = gw.request("key-default", "default", pool[0])
        assert resp.ok

    def test_build_gateway_from_checkpoint_cold(self, trained, pool,
                                                tmp_path):
        from repro.training.checkpoint import save_checkpoint
        path = str(tmp_path / "model.npz")
        save_checkpoint(path, trained.artifacts.model, epoch=1,
                        spec=trained.spec,
                        scaler=trained.artifacts.loaders.scaler)
        gw = build_gateway({"bay": path}, clock=ManualClock(),
                           states={"bay": "cold"})
        dep = gw.deployments.get("bay")
        assert dep.state == "cold" and dep.version == "v1"
        resp = gw.request("key-default", "bay", pool[0])   # warms lazily
        assert resp.ok and dep.state == "warm"

    def test_unknown_keyword_fails_at_the_call(self, trained):
        """Not at the deployment's first warm(): cold ones included."""
        with pytest.raises(TypeError, match="num_shards"):
            serve(trained, num_shards=2)
        with pytest.raises(TypeError, match="num_shardz"):
            build_gateway({"bay": trained}, states={"bay": "cold"},
                          num_shardz=3)
        with pytest.raises(TypeError, match="num_shardz"):
            session_source(trained, num_shardz=3)

    def test_only_the_knobs_callers_set(self):
        """Each option a gateway takes is one a caller outside the tests
        sets; the breaker's policy, the depth cap, the quota burst and
        the store length are constants, and every deployment starts at
        ``v1``."""
        def params(fn):
            return [p for p in inspect.signature(fn).parameters
                    if p != "self"]

        assert params(Gateway.__init__) == [
            "clock", "max_batch", "service_time", "cache_ttl", "fault_plan"]
        assert params(build_gateway) == [
            "sources", "tenants", "clock", "max_batch", "max_wait",
            "service_time", "cache_ttl", "states", "fallbacks",
            "fault_plan"]
        assert params(Gateway.add_tenant) == [
            "tenant_id", "api_key", "rate_qps"]

    def test_build_gateway_needs_sources(self):
        with pytest.raises(ValueError, match="at least one"):
            build_gateway({})

    def test_tenant_spec_forms(self, trained):
        gw = build_gateway(
            {"bay": trained}, clock=ManualClock(),
            tenants=["a", {"tenant_id": "b", "api_key": "secret-b"}])
        assert gw.tenants.authenticate("key-a").tenant_id == "a"
        assert gw.tenants.authenticate("secret-b").tenant_id == "b"
        with pytest.raises(ValueError, match="tenant_id"):
            build_gateway({"bay": trained}, clock=ManualClock(),
                          tenants=[{"api_key": "x"}])


# ---------------------------------------------------------------------------
# Per-tenant load generation
# ---------------------------------------------------------------------------
class TestGatewayLoadGenerator:
    STREAMS = [
        dict(api_key="key-ops", deployment="bay", rate_qps=700.0,
             requests=140, deadline=0.05),
        dict(api_key="key-research", deployment="bay", rate_qps=300.0,
             requests=60, deadline=0.05),
    ]

    def test_deterministic(self, trained, pool):
        """Acceptance: fixed seed + synthetic service time => identical
        multi-tenant reports, shed decisions included."""
        reports = []
        for _ in range(2):
            gen = GatewayLoadGenerator(make_gateway(trained), pool, seed=7)
            reports.append(gen.open_loop(
                [TenantStream(**s) for s in self.STREAMS]))
        assert reports[0].to_dict() == reports[1].to_dict()

    def test_baseline_under_capacity_never_sheds(self, trained, pool):
        gen = GatewayLoadGenerator(make_gateway(trained), pool, seed=7)
        report = gen.open_loop([TenantStream(**s) for s in self.STREAMS])
        assert report.requests == 200
        assert report.shed_rate == 0.0 and report.deadline_misses == 0
        assert report.goodput_qps > 0
        assert set(report.per_tenant) == {"ops", "research"}
        assert report.per_tenant["ops"]["completed"] == 140

    def test_overload_sheds_boundedly(self, trained, pool):
        gw = make_gateway(trained)
        gen = GatewayLoadGenerator(gw, pool, seed=7)
        report = gen.open_loop([
            TenantStream(api_key="key-ops", deployment="bay",
                         rate_qps=10000.0, requests=600, deadline=0.025)])
        assert 0.0 < report.shed_rate < 0.8
        assert report.deadline_misses == 0     # admitted requests all make it
        assert report.goodput_qps > 2000.0
        assert gw.admission.shed_by_reason() == \
            {"deadline": round(report.shed_rate * 600)}

    def test_every_dispatch_is_observed(self, trained, pool):
        """Each served batch feeds the admission estimate and the breaker
        exactly once, so under overload the estimate is the full batch's
        cost, not whichever partial batch happened to be seen."""
        gw = make_gateway(trained)
        observed = []
        observe = gw.admission.observe
        gw.admission.observe = lambda *a, **kw: (observed.append(a[1]),
                                                 observe(*a, **kw))
        GatewayLoadGenerator(gw, pool, seed=7).open_loop([
            TenantStream(api_key="key-ops", deployment="bay",
                         rate_qps=10000.0, requests=600, deadline=0.025)])
        stats = gw.deployments.get("bay").service.stats
        assert stats.batches > 20 and stats.failed_batches == 0
        assert len(observed) == stats.batches
        assert gw.resilience.breaker("bay").successes == stats.batches
        assert max(observed) == pytest.approx(2e-3)     # 4e-4 + 2e-4 * 8
        assert gw.admission.estimate("bay") == pytest.approx(2e-3)

    def test_summary_mentions_goodput_and_shed(self, trained, pool):
        gen = GatewayLoadGenerator(make_gateway(trained), pool, seed=0)
        report = gen.open_loop([TenantStream(
            api_key="key-ops", deployment="bay", rate_qps=500.0,
            requests=40, deadline=0.05)])
        assert "goodput" in report.summary() and "shed" in report.summary()

    def test_requires_manual_clock(self, trained, pool):
        import time
        gw = make_gateway(trained, clock=time.perf_counter)
        with pytest.raises(TypeError, match="ManualClock"):
            GatewayLoadGenerator(gw, pool)

    def test_uniform_schedule_ignores_the_seed(self):
        """A uniform schedule draws nothing: the seed only picks windows,
        which a synthetic service time does not see."""
        stream = toy_stream(rate_qps=2000.0, requests=40, arrival="uniform")
        a, b = (GatewayLoadGenerator(toy_gateway(), toy_pool(), seed=seed)
                .open_loop([stream]).to_dict() for seed in (0, 1))
        assert a.pop("seed") == 0 and b.pop("seed") == 1
        assert a == b

    def test_poisson_schedule_follows_the_seed(self):
        stream = toy_stream(rate_qps=2000.0, requests=40)
        a, b = (GatewayLoadGenerator(toy_gateway(), toy_pool(), seed=seed)
                .open_loop([stream]) for seed in (0, 1))
        assert a.duration_seconds != b.duration_seconds

    def test_open_loop_respects_offered_rate(self):
        report = GatewayLoadGenerator(toy_gateway(), toy_pool()).open_loop(
            [toy_stream(rate_qps=800.0, requests=200, arrival="uniform")])
        assert report.requests == 200 and report.offered_qps == 800.0
        # Served throughput tracks the offered rate when under capacity.
        assert report.goodput_qps == pytest.approx(800.0, rel=0.1)

    def test_report_dict_rebuilds_the_report(self):
        report = GatewayLoadGenerator(toy_gateway(), toy_pool(),
                                      seed=2).open_loop(
            [toy_stream(rate_qps=2000.0, requests=16)])
        assert LoadReport(**report.to_dict()) == report

    def test_rejects_bad_pool(self):
        with pytest.raises(ShapeError):
            GatewayLoadGenerator(toy_gateway(), np.zeros((4, 8, 2)))

    def test_needs_a_stream(self):
        gen = GatewayLoadGenerator(toy_gateway(), toy_pool())
        with pytest.raises(ValueError, match="TenantStream"):
            gen.open_loop([])

    def test_per_tenant_breakdown_counts_quota(self):
        gw = toy_gateway()
        gw.add_tenant("metered", rate_qps=100.0)
        report = GatewayLoadGenerator(gw, toy_pool()).open_loop([
            toy_stream(rate_qps=1000.0, requests=50),
            TenantStream(api_key="key-metered", deployment="toy",
                         rate_qps=1000.0, requests=100,
                         arrival="uniform")])
        metered = report.per_tenant["metered"]
        assert metered["requests"] == 100 and metered["quota_rejected"] > 0
        assert metered["completed"] + metered["quota_rejected"] == 100
        assert report.per_tenant["ops"]["completed"] == 50

    def test_deadline_misses_counted(self):
        """Admission promises from the estimate of a healthy batch; a
        straggling session serves what it admitted late, and the report
        counts those misses."""
        gw = toy_gateway(fault_plan=FaultPlan().session_straggler(
            "toy", 3.0, start_dispatch=0, end_dispatch=50))
        report = GatewayLoadGenerator(gw, toy_pool()).open_loop(
            [toy_stream(rate_qps=1000.0, requests=50, deadline=0.0015)])
        assert report.deadline_misses > 0

    def test_stale_answers_are_not_dispatches(self):
        """Batch size, queue wait and deadline misses describe dispatches:
        a stale-cache answer is good, but an instant forecast of batch
        size 0, so the report's mean batch size is the one over the
        dispatched responses."""
        gw = toy_gateway(cache_ttl=0.002, fault_plan=FaultPlan()
                         .session_crash("toy", at_dispatch=10))
        seen = []

        def recording(call):
            def wrapped():
                out = call()
                seen.extend(out)
                return out
            return wrapped

        gw.poll, gw.flush = recording(gw.poll), recording(gw.flush)
        report = GatewayLoadGenerator(gw, toy_pool(3), seed=1).open_loop(
            [toy_stream(rate_qps=2000.0, requests=200)])
        assert report.degraded > 0                  # stale answers happened
        sizes = [r.forecast.batch_size for r in seen if r.status == "ok"]
        assert report.mean_batch_size == np.mean(sizes)
        assert report.mean_batch_size >= 1.0

    def test_utilization_is_busy_over_duration(self):
        """Under capacity on a uniform schedule every request is a batch
        of one, served on arrival: the model is busy 0.6 ms of each
        1.25 ms period."""
        report = GatewayLoadGenerator(toy_gateway(), toy_pool()).open_loop(
            [toy_stream(rate_qps=800.0, requests=200, arrival="uniform")])
        assert report.batches == 200 and report.mean_batch_size == 1.0
        assert report.queue_wait_mean == 0.0
        assert report.latency_max == pytest.approx(6e-4)
        assert report.duration_seconds == pytest.approx(200 / 800.0 + 6e-4)
        assert report.utilization == pytest.approx(
            200 * 6e-4 / report.duration_seconds)

    def test_second_run_reports_only_its_own_work(self):
        """A generator run twice reports each run's batches, busy time
        and clock span, not the gateway's running totals."""
        gen = GatewayLoadGenerator(toy_gateway(), toy_pool())
        stream = toy_stream(rate_qps=800.0, requests=50, arrival="uniform")
        first, second = gen.open_loop([stream]), gen.open_loop([stream])
        assert first.batches == second.batches == 50
        assert second.requests == 50
        assert second.duration_seconds == pytest.approx(
            first.duration_seconds)
        assert second.utilization == pytest.approx(first.utilization)

    def test_simultaneous_arrivals_keep_stream_order(self):
        """Two streams on one schedule arrive together: each instant
        submits them in stream order, and both share one forward."""
        gw = toy_gateway()
        gw.add_tenant("research")
        order = []
        submit = gw.submit

        def recording(api_key, *args, **kw):
            order.append(api_key)
            return submit(api_key, *args, **kw)

        gw.submit = recording
        report = GatewayLoadGenerator(gw, toy_pool()).open_loop([
            toy_stream(rate_qps=500.0, requests=3, arrival="uniform"),
            TenantStream(api_key="key-research", deployment="toy",
                         rate_qps=500.0, requests=3, arrival="uniform")])
        assert order == ["key-ops", "key-research"] * 3
        assert report.batches == 3 and report.mean_batch_size == 2.0

    def test_deadlines_anchor_at_the_scheduled_arrival(self):
        """Past capacity, dispatches carry the clock beyond the schedule;
        a late arrival's deadline is still its scheduled time plus the
        stream's budget, so part of that budget is already spent."""
        gw = toy_gateway()
        seen = []
        submit = gw.submit

        def recording(*args, deadline=None):
            seen.append((gw.clock(), deadline))
            return submit(*args, deadline=deadline)

        gw.submit = recording
        rate, budget = 10000.0, 0.01
        GatewayLoadGenerator(gw, toy_pool()).open_loop([toy_stream(
            rate_qps=rate, requests=100, arrival="uniform", deadline=budget)])
        scheduled = np.cumsum(np.full(100, 1.0 / rate))
        assert [d for _, d in seen] == pytest.approx(
            list(scheduled + budget))
        assert any(now > t for (now, _), t in zip(seen, scheduled))

    def test_stream_validation(self):
        with pytest.raises(ValueError, match="rate_qps"):
            TenantStream(api_key="k", deployment="d", rate_qps=0.0,
                         requests=1)
        with pytest.raises(ValueError, match="requests"):
            TenantStream(api_key="k", deployment="d", rate_qps=1.0,
                         requests=0)
        with pytest.raises(ValueError, match="arrival"):
            TenantStream(api_key="k", deployment="d", rate_qps=1.0,
                         requests=1, arrival="bursty")
