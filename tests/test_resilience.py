"""Self-healing gateway: circuit breakers, fault injection, degradation.

Runs entirely on deterministic toy sessions (predictions = window x
scale) and a ManualClock, so every trip, probe, degradation and refused
swap in here is exact — no wall-clock thresholds, no flakiness.  A failed
dispatch has one recovery path, the degradation ladder; the circuit
breaker alone decides when a deployment is probed again.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import build_gateway
from repro.runtime.faults import FaultPlan
from repro.serving.gateway import Gateway
from repro.serving.gateway.result_cache import ResultCache, cache_key
from repro.serving import resilience
from repro.serving.resilience import (
    CLOSED,
    DeploymentFaultInjector,
    HALF_OPEN,
    OPEN,
    RESET_TIMEOUT,
    CircuitBreaker,
)
from repro.serving.resilience import degradation_rung
from repro.serving.service import ManualClock
from repro.utils.errors import SessionFailure

H, N, F = 4, 3, 2


def service_time(n: int) -> float:
    # batch of 1: 1.1ms; baseline (batch of 4): 1.4ms
    return 1e-3 + 1e-4 * n


BASELINE = service_time(4)


class ToySession:
    """Deterministic in-memory session: predictions = window * scale.

    A pure function of the input window, so two sessions with the same
    ``scale`` produce bitwise-identical forecasts — the property the
    fallback/stale degradation tests pin.
    """

    def __init__(self, *, scale: float = 2.0, max_batch: int = 8,
                 nodes: int = N):
        self.horizon, self.num_nodes, self.in_features = H, nodes, F
        self.max_batch = max_batch
        self.scaler = None
        self.scale = float(scale)
        self._staging = np.zeros((max_batch, H, nodes, F))
        self.predicts = 0

    def stage(self, n):
        return self._staging[:n]

    def predict(self, x):
        self.predicts += 1
        return np.asarray(x) * self.scale


class DoomedSession:
    """Delegates everything to an inner session but dies on predict."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def predict(self, x):
        raise SessionFailure("green session is broken")


class NaNSession:
    """Predicts fine — except the numbers are garbage."""

    fill = np.nan

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def predict(self, x):
        out = np.asarray(x) * 2.0
        out = out.copy()
        out[..., 0] = self.fill
        return out


class InfSession(NaNSession):
    """Garbage of the other non-finite kind: an overflowed forward."""

    fill = -np.inf


def expected(window, scale=2.0):
    return np.asarray(window) * scale


def make_windows(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(H, N, F)) for _ in range(n)]


KEY = "k-ops"


def make_gw(*, fallback=False, scale=2.0, fallback_nodes=N, **kw):
    kw.setdefault("clock", ManualClock())
    kw.setdefault("max_batch", 4)
    kw.setdefault("service_time", service_time)
    gw = Gateway(**kw)
    gw.add_deployment("a", ToySession(scale=scale),
                      fallback="b" if fallback else None)
    if fallback:
        gw.add_deployment("b", ToySession(scale=scale, nodes=fallback_nodes))
    gw.add_tenant("ops", api_key=KEY)
    return gw


def reasons(gw, deployment=None):
    return [t["reason"] for t in gw.resilience.transitions(deployment)]


# ======================================================================
class TestBreakerPolicy:
    def test_policy_is_four_constants(self):
        assert (resilience.FAILURE_THRESHOLD, resilience.LATENCY_BLOWOUT,
                resilience.LATENCY_ALPHA, resilience.RESET_TIMEOUT) == (
            2, 4.0, 0.3, 0.05)


class TestRecoveryPolicy:
    """The one recovery decision as a truth table over plain values: no
    gateway, deployment, queue or clock is built."""

    @pytest.mark.parametrize("stale, ready, admitted, rung", [
        (True, True, True, "stale_cache"),
        (True, True, False, "stale_cache"),
        (True, False, True, "stale_cache"),
        (True, False, False, "stale_cache"),
        (False, True, True, "fallback"),
        (False, True, False, "failed"),      # fallback shed the request
        (False, False, True, "failed"),      # no closed fallback to take it
        (False, False, False, "failed"),
    ])
    def test_degradation_ladder(self, stale, ready, admitted, rung):
        assert degradation_rung(stale_available=stale, fallback_ready=ready,
                                fallback_admitted=admitted) == rung


# ======================================================================
class TestCircuitBreaker:
    def make(self, baseline=1.0):
        clock = ManualClock()
        return CircuitBreaker("a", clock, baseline=baseline), clock

    def test_ewma(self):
        b, _ = self.make(baseline=None)
        b.record_success(1.0)
        assert b.ewma_latency == 1.0               # first sample seeds it
        b.record_success(2.0)
        assert b.ewma_latency == pytest.approx(0.7 * 1.0 + 0.3 * 2.0)

    def test_blowout_against_baseline(self):
        """Closed, the EWMA is tested against 4x the baseline; a probe's
        own latency is."""
        b, _ = self.make()
        b.record_success(3.9)
        assert b.state == CLOSED
        b, _ = self.make()
        b.record_success(5.0)
        assert b.state == OPEN
        for probe, state in ((4.1, OPEN), (3.9, CLOSED)):
            b, clock = self.make()
            b.record_failure(), b.record_failure()
            clock.advance(RESET_TIMEOUT)
            b.before_request(), b.try_probe()
            b.record_success(probe)
            assert b.state == state

    def test_streaks_and_reset(self):
        b, clock = self.make()
        b.record_failure()
        b.record_failure()
        assert b.consecutive_failures == 2 and b.failures == 2
        b.record_success()
        assert b.consecutive_failures == 0 and b.successes == 1
        b.record_success(3.0)
        clock.advance(RESET_TIMEOUT)
        b.before_request(), b.try_probe()
        b.record_success(1.0)                      # the probe: fresh slate
        assert b.ewma_latency == 1.0 and b.baseline == 1.0

    def test_opens_on_failure_streak(self):
        b, clock = self.make()
        b.record_failure()
        assert b.state == CLOSED
        b.record_failure()
        assert b.state == OPEN
        assert [t.reason for t in b.transitions] == ["failures"]
        assert b.before_request() == OPEN          # timeout not yet served
        clock.advance(RESET_TIMEOUT)
        assert b.before_request() == HALF_OPEN
        assert [t.reason for t in b.transitions] == ["failures", "timeout"]

    def test_success_resets_streak(self):
        b, _ = self.make()
        b.record_failure()
        b.record_success(0.5)
        b.record_failure()
        assert b.state == CLOSED

    def test_probe_slot_is_single(self):
        b, clock = self.make()
        b.record_failure(), b.record_failure()
        clock.advance(RESET_TIMEOUT)
        assert b.before_request() == HALF_OPEN
        assert b.try_probe()
        assert not b.try_probe()                   # one probe at a time
        b.cancel_probe()
        assert b.try_probe()                       # shed probes release it

    def test_probe_success_closes(self):
        b, clock = self.make()
        b.record_failure(), b.record_failure()
        clock.advance(RESET_TIMEOUT)
        b.before_request(), b.try_probe()
        b.record_success(0.5)
        assert b.state == CLOSED
        assert b.ewma_latency == 0.5               # fresh slate post-recovery
        assert b.consecutive_failures == 0
        assert [t.reason for t in b.transitions][-1] == "probe_ok"

    def test_probe_failure_reopens(self):
        b, clock = self.make()
        b.record_failure(), b.record_failure()
        clock.advance(RESET_TIMEOUT)
        b.before_request(), b.try_probe()
        b.record_failure()
        assert b.state == OPEN
        assert [t.reason for t in b.transitions][-1] == "probe_failed"

    def test_straggling_probe_reopens(self):
        b, clock = self.make()
        b.record_failure(), b.record_failure()
        clock.advance(RESET_TIMEOUT)
        b.before_request(), b.try_probe()
        b.record_success(10.0)                     # 10x the 1.0 baseline
        assert b.state == OPEN
        assert [t.reason for t in b.transitions][-1] == "latency"

    def test_latency_blowout_opens_closed_circuit(self):
        b, _ = self.make()
        b.record_success(10.0)
        assert b.state == OPEN
        assert [t.reason for t in b.transitions] == ["latency"]

    def test_reopened_circuit_restarts_its_timer(self):
        """A failed probe re-opens the circuit at the probe's time: the
        next probe waits out ``RESET_TIMEOUT`` from there, not from the
        first opening."""
        b, clock = self.make()
        b.record_failure(), b.record_failure()
        clock.advance(RESET_TIMEOUT)
        b.before_request(), b.try_probe()
        clock.advance(RESET_TIMEOUT / 2)
        b.record_failure()                         # the probe failed
        assert b.opened_at == clock()
        clock.advance(RESET_TIMEOUT / 2)
        assert b.before_request() == OPEN          # first opening long past
        clock.advance(RESET_TIMEOUT)
        assert b.before_request() == HALF_OPEN

    def test_failures_while_open_add_no_transition(self):
        b, _ = self.make()
        for _ in range(4):
            b.record_failure()
        assert b.state == OPEN and b.failures == 4
        assert [t.reason for t in b.transitions] == ["failures"]

    def test_describe_reports_its_own_health(self):
        b, _ = self.make()
        b.record_success(0.5)
        b.record_failure()
        d = b.describe()
        assert (d["state"], d["failures"], d["successes"],
                d["consecutive_failures"], d["ewma_latency"],
                d["baseline_latency"]) == (CLOSED, 1, 1, 1, 0.5, 1.0)

    def test_zero_baseline_never_trips_on_latency(self):
        """A service-time model that prices a batch at nothing gives the
        breaker no scale to measure a blowout against."""
        b, _ = self.make(baseline=0.0)
        for _ in range(5):
            b.record_success(100.0)
        assert b.state == CLOSED and b.transitions == []

    def test_no_baseline_means_no_latency_trip(self):
        b, _ = self.make(baseline=None)
        b.record_success(1e9)
        for _ in range(5):
            b.record_success(100.0)
        assert b.state == CLOSED


# ======================================================================
class TestDeploymentFaultInjector:
    def test_crash_latches_until_revive(self):
        plan = FaultPlan().session_crash("a", at_dispatch=2)
        inj = DeploymentFaultInjector("a", plan)
        inj.on_dispatch(1)
        inj.on_dispatch(1)
        with pytest.raises(SessionFailure):
            inj.on_dispatch(1)                     # ordinal 2 fires
        with pytest.raises(SessionFailure):
            inj.on_dispatch(1)                     # stays down
        inj.revive()
        inj.on_dispatch(1)                         # one-shot: no refire
        assert inj.crashes == 1 and not inj.dead

    def test_straggler_scales_a_dispatch_range(self):
        plan = FaultPlan().session_straggler("a", 4.0, start_dispatch=1,
                                             end_dispatch=3)
        inj = DeploymentFaultInjector("a", plan)
        scales = []
        for _ in range(4):
            inj.on_dispatch(1)
            scales.append(inj.scale_service_time(1.0))
        assert scales == [1.0, 4.0, 4.0, 1.0]

    def test_corruption_fires_at_insert_ordinal(self):
        clock = ManualClock()
        plan = FaultPlan().store_corruption("a", at_insert=1)
        inj = DeploymentFaultInjector("a", plan)
        cache = ResultCache(ttl=10.0, clock=clock)
        w0, w1 = make_windows(2)
        k0 = cache_key("a", "v1", w0)
        k1 = cache_key("a", "v1", w1)
        cache.put(k0, w0[..., 0])
        assert not inj.maybe_corrupt(cache, k0)    # insert ordinal 0: clean
        cache.put(k1, w1[..., 0])
        assert inj.maybe_corrupt(cache, k1)        # ordinal 1 fires
        assert cache.get(k0) is not None
        assert cache.get(k1) is None               # integrity check caught it
        assert cache.stats.corruptions_detected == 1

    def test_events_filter_by_deployment(self):
        plan = (FaultPlan().session_crash("a").session_straggler("b", 2.0)
                .rank_crash(5, rank=0))
        inj = DeploymentFaultInjector("b", plan)
        assert [ev.kind for _, ev in inj._events] == ["session_straggler"]
        assert all(ev.kind not in ("session_crash", "session_straggler",
                                   "store_corruption")
                   for _, ev in plan.transport_events())


# ======================================================================
class TestStaleCache:
    def test_expired_entries_stay_for_stale_serving(self):
        clock = ManualClock()
        cache = ResultCache(ttl=1.0, clock=clock)
        (w,) = make_windows(1)
        key = cache_key("a", "v1", w)
        cache.put(key, w[..., 0])
        clock.advance(2.0)
        assert cache.get(key) is None
        assert cache.get(key) is None
        assert cache.stats.expirations == 1        # counted once per entry
        stale = cache.get_stale(key)
        assert stale is not None
        np.testing.assert_array_equal(stale, w[..., 0])
        assert cache.stats.stale_hits == 1

    def test_stale_reads_are_integrity_checked(self):
        clock = ManualClock()
        cache = ResultCache(ttl=1.0, clock=clock)
        (w,) = make_windows(1)
        key = cache_key("a", "v1", w)
        cache.put(key, w[..., 0])
        clock.advance(2.0)
        assert cache.corrupt(key)
        assert cache.get_stale(key) is None
        assert cache.stats.corruptions_detected == 1
        assert len(cache) == 0                     # dropped, never served


# ======================================================================
class TestSelfHealingGateway:
    def test_crash_fails_each_request_once_then_probe_recovery(self):
        plan = FaultPlan().session_crash("a", at_dispatch=0)
        gw = make_gw(fault_plan=plan)
        clock = gw.clock
        w0, w1, w2 = make_windows(3)

        r0 = gw.request(KEY, "a", w0)
        assert r0.status == "failed" and r0.reason == "session_failure"
        assert not r0.ok
        assert reasons(gw) == []                   # one failure so far
        with pytest.raises(RuntimeError):
            r0.latency                             # no forecast to stamp
        r1 = gw.request(KEY, "a", w1)              # the second one opens it
        assert r1.status == "failed"
        assert reasons(gw) == ["failures"]
        # One dispatch per request: a failure is never re-sent to the
        # session that failed it.
        assert gw.deployments["a"].service.stats.failed_batches == 2
        assert clock() == pytest.approx(2 * service_time(1))

        clock.advance(2 * RESET_TIMEOUT)           # past the reset timeout
        r2 = gw.request(KEY, "a", w2)
        assert r2.status == "ok"
        np.testing.assert_array_equal(r2.forecast.predictions,
                                      expected(w2)[..., 0])
        assert reasons(gw) == ["failures", "timeout", "probe_ok"]
        assert gw.resilience.restarts == 1
        assert gw.deployments.get("a").restarts == 1
        assert gw.resilience.breaker("a").state == CLOSED

    def test_stale_cache_degradation_is_bitwise(self):
        plan = FaultPlan().session_crash("a", at_dispatch=1)
        # Each dispatch charges 1.1 ms, so w0's entry, put after the
        # first, has expired by the third: no clock advance is needed,
        # and the circuit stays inside its reset timeout.
        gw = make_gw(fault_plan=plan, cache_ttl=0.002)
        w0, w1, w2 = make_windows(3)

        r1 = gw.request(KEY, "a", w0)              # dispatch 0: healthy
        assert r1.status == "ok"
        r2 = gw.request(KEY, "a", w1)              # dispatch 1: crash
        assert r2.status == "failed"               # no stale entry for w1
        assert gw.request(KEY, "a", w2).status == "failed"
        assert gw.resilience.breaker("a").state == OPEN

        r3 = gw.submit(KEY, "a", w0)
        assert r3.status == "degraded"
        assert r3.degraded_source == "stale_cache"
        assert r3.ok
        np.testing.assert_array_equal(r3.forecast.predictions,
                                      r1.forecast.predictions)
        assert gw.cache.stats.stale_hits == 1
        assert gw.resilience.degraded_stale == 1
        assert gw.stats.degraded == 1

    def test_fallback_reroute_keeps_the_ticket(self):
        plan = FaultPlan().session_crash("a", at_dispatch=0)
        gw = make_gw(fallback=True, fault_plan=plan)
        (w,) = make_windows(1)

        r = gw.request(KEY, "a", w)
        assert r.status == "degraded"
        assert r.degraded_source == "fallback:b"
        # completion reports the original admission ticket, not b's queue
        assert r.deployment == "a"
        np.testing.assert_array_equal(r.forecast.predictions,
                                      expected(w)[..., 0])
        assert gw.resilience.degraded_fallback == 1
        assert gw.stats.failed == 0                # the ladder answered

    def test_open_circuit_degrades_at_submit(self):
        plan = FaultPlan().session_crash("a", at_dispatch=0)
        gw = make_gw(fallback=True, fault_plan=plan)
        w0, w1, w2 = make_windows(3)

        for w in (w0, w2):                         # two failures trip it
            assert gw.request(KEY, "a", w).status == "degraded"
        assert gw.resilience.breaker("a").state == OPEN
        r2 = gw.submit(KEY, "a", w1)               # open: routed at the door
        assert r2.status == "admitted"
        assert r2.deployment == "b"
        assert r2.degraded_source == "fallback:b"
        (done,) = gw.flush()
        assert done.status == "degraded"
        np.testing.assert_array_equal(done.forecast.predictions,
                                      expected(w1)[..., 0])
        assert gw.resilience.degraded_fallback == 3

    def test_exhausted_ladder_fails_explicitly(self):
        plan = FaultPlan().session_crash("a", at_dispatch=0)
        gw = make_gw(fault_plan=plan)
        (w,) = make_windows(1)
        r = gw.request(KEY, "a", w)
        assert r.status == "failed"
        assert gw.stats.failed == 1
        # nothing hangs, nothing is silently dropped
        assert gw.stats.requests == 1
        assert not gw._pending

    def test_fallback_of_another_shape_fails_explicitly(self):
        """A fallback that cannot take the primary's windows is not
        ready: each request of the failed batch is answered ``failed``,
        and none is stranded pending."""
        plan = FaultPlan().session_crash("a", at_dispatch=0)
        gw = make_gw(fallback=True, fallback_nodes=5, fault_plan=plan)
        for w in make_windows(3):
            assert gw.submit(KEY, "a", w).status == "admitted"
        done = gw.flush()
        assert [(r.status, r.reason) for r in done] == \
            [("failed", "session_failure")] * 3
        assert not gw._pending and gw.flush() == []
        assert gw.stats.failed == 3 and gw.stats.admitted == 3

    def test_open_circuit_with_another_shape_fails_at_submit(self):
        plan = FaultPlan().session_crash("a", at_dispatch=0)
        gw = make_gw(fallback=True, fallback_nodes=5, fault_plan=plan)
        w0, w1, w2 = make_windows(3)
        for w in (w0, w1):                         # two failures trip it
            assert gw.request(KEY, "a", w).status == "failed"
        r = gw.submit(KEY, "a", w2)
        assert (r.status, r.reason) == ("failed", "circuit_open")
        assert gw.resilience.breaker("b").transitions == []
        assert gw.deployments["b"].service.stats.batches == 0

    def test_fallback_reroute_checks_the_window_once(self, monkeypatch):
        """A fallback takes its primary's windows, so the one check at
        submit covers a re-route."""
        from repro.serving.service import ForecastService

        checked = []
        check = ForecastService.check_window
        monkeypatch.setattr(ForecastService, "check_window",
                            lambda svc, w: checked.append(w) or check(svc, w))
        plan = FaultPlan().session_crash("a", at_dispatch=0)
        gw = make_gw(fallback=True, fault_plan=plan)
        (w,) = make_windows(1)
        r = gw.request(KEY, "a", w)
        assert r.degraded_source == "fallback:b"
        assert len(checked) == 1

    def test_straggler_opens_circuit_then_recovers(self):
        plan = FaultPlan().session_straggler("a", 10.0, start_dispatch=0,
                                             end_dispatch=1)
        gw = make_gw(fault_plan=plan)
        w0, w1 = make_windows(2)
        r1 = gw.request(KEY, "a", w0)
        assert r1.status == "ok"                   # slow, not wrong
        assert gw.resilience.breaker("a").state == OPEN
        assert reasons(gw) == ["latency"]
        gw.clock.advance(2 * RESET_TIMEOUT)
        r2 = gw.request(KEY, "a", w1)              # probe: straggle is over
        assert r2.status == "ok"
        assert reasons(gw) == ["latency", "timeout", "probe_ok"]

    def test_straggling_probe_keeps_circuit_open(self):
        plan = FaultPlan().session_straggler("a", 10.0, start_dispatch=0,
                                             end_dispatch=2)
        gw = make_gw(fault_plan=plan)
        w = make_windows(3)
        gw.request(KEY, "a", w[0])                 # trips on latency
        gw.clock.advance(2 * RESET_TIMEOUT)
        gw.request(KEY, "a", w[1])                 # probe still straggling
        assert reasons(gw) == ["latency", "timeout", "latency"]
        assert gw.resilience.breaker("a").state == OPEN
        gw.clock.advance(2 * RESET_TIMEOUT)
        gw.request(KEY, "a", w[2])                 # healthy probe
        assert reasons(gw) == ["latency", "timeout", "latency",
                               "timeout", "probe_ok"]
        assert gw.resilience.breaker("a").state == CLOSED

    def test_transitions_deterministic_under_fixed_plan(self):
        def run():
            plan = (FaultPlan().session_crash("a", at_dispatch=0)
                    .session_straggler("a", 10.0, start_dispatch=3,
                                       end_dispatch=4))
            gw = make_gw(fault_plan=plan)
            for w in make_windows(5, seed=42):
                gw.request(KEY, "a", w)
                gw.clock.advance(2 * RESET_TIMEOUT)
            return gw.resilience.transitions()

        first, second = run(), run()
        assert first == second                     # bit-for-bit replay
        assert len(first) >= 3

    def test_probe_in_flight_degrades_second_request(self):
        plan = FaultPlan().session_crash("a", at_dispatch=0)
        gw = make_gw(fault_plan=plan)
        w0, w1, w2 = make_windows(3)
        for w in (w0, w0):                         # two failures trip it
            assert gw.request(KEY, "a", w).status == "failed"
        gw.clock.advance(2 * RESET_TIMEOUT)
        s1 = gw.submit(KEY, "a", w1)               # claims the probe slot
        assert s1.status == "admitted"
        s2 = gw.submit(KEY, "a", w2)               # slot taken: walk ladder
        assert s2.status == "failed" and s2.reason == "probe_in_flight"
        done = gw.flush()
        assert [r.status for r in done] == ["ok"]
        assert gw.resilience.breaker("a").state == CLOSED

    def test_shed_probe_releases_the_slot(self):
        plan = FaultPlan().session_crash("a", at_dispatch=0)
        gw = make_gw(fault_plan=plan)
        w0, w1, w2 = make_windows(3)
        gw.request(KEY, "a", w0)
        gw.request(KEY, "a", w0)                   # two failures trip it
        gw.clock.advance(2 * RESET_TIMEOUT)
        # a probe with no deadline budget is shed by admission control...
        s1 = gw.submit(KEY, "a", w1, deadline=gw.clock())
        assert s1.status == "shed"
        breaker = gw.resilience.breaker("a")
        assert breaker.state == HALF_OPEN and not breaker.probe_in_flight
        # ...and the released slot lets the next request probe
        s2 = gw.submit(KEY, "a", w2)
        assert s2.status == "admitted"
        gw.flush()
        assert breaker.state == CLOSED

    def test_corrupted_cache_entry_is_recomputed(self):
        plan = FaultPlan().store_corruption("a", at_insert=0)
        gw = make_gw(fault_plan=plan, cache_ttl=60.0)
        (w,) = make_windows(1)
        r1 = gw.request(KEY, "a", w)
        assert r1.status == "ok"                   # corruption hits the copy
        r2 = gw.request(KEY, "a", w)               # integrity check: recompute
        assert r2.status == "ok"
        np.testing.assert_array_equal(r2.forecast.predictions,
                                      r1.forecast.predictions)
        assert gw.cache.stats.corruptions_detected == 1
        r3 = gw.request(KEY, "a", w)               # clean reinsert: cache hit
        assert r3.status == "cached"
        np.testing.assert_array_equal(r3.forecast.predictions,
                                      r1.forecast.predictions)


# ======================================================================
class TestGreenCheckBeforeFlip:
    """A swap checks green before the flip: a green that raises or
    answers a zero window with non-finite values never takes traffic, and
    blue serves on with its queue intact — whether or not anything was
    served before the swap."""

    @pytest.mark.parametrize("served", [0, 2])
    @pytest.mark.parametrize("broken", [DoomedSession, NaNSession,
                                        InfSession])
    def test_broken_green_is_refused_with_blue_intact(self, broken, served):
        gw = make_gw(cache_ttl=60.0)
        dep = gw.deployments["a"]
        blue = dep.service.session
        for w in make_windows(served, seed=9):
            assert gw.request(KEY, "a", w).status == "ok"
        queued = make_windows(3, seed=11)
        tickets = [gw.submit(KEY, "a", w) for w in queued]
        with pytest.raises(SessionFailure, match="green"):
            gw.swap("a", broken(ToySession()), version="v2")
        assert dep.version == "v1" and dep.service.session is blue
        assert dep.in_flight == 3 and gw.stats.swaps == 0
        assert dep.swaps == []
        done = {(r.deployment, r.request_id): r for r in gw.poll()}
        for t, w in zip(tickets, queued):
            r = done[t.deployment, t.request_id]
            assert r.status == "ok" and r.version == "v1"
            np.testing.assert_array_equal(r.forecast.predictions,
                                          expected(w)[..., 0])

    def test_healthy_green_goes_live(self):
        gw = make_gw()
        (w0,) = make_windows(1, seed=4)
        t = gw.submit(KEY, "a", w0)
        record = gw.swap("a", ToySession(scale=3.0), version="v2")
        assert record.new_version == "v2"
        assert record.drained == 1 and record.dropped == 0
        (blue_answer,) = gw.poll()
        assert blue_answer.request_id == t.request_id
        np.testing.assert_array_equal(blue_answer.forecast.predictions,
                                      expected(w0)[..., 0])
        (w,) = make_windows(1, seed=5)
        r = gw.request(KEY, "a", w)
        assert r.version == "v2"
        np.testing.assert_array_equal(r.forecast.predictions,
                                      expected(w, scale=3.0)[..., 0])


# ======================================================================
class TestNeverSilentlyDropped:
    """Property: under any crash/straggler plan on the primary and its
    fallback, with or without a fallback route and a cache, every
    admitted ticket comes back exactly once, nothing stays pending, and
    every answer is bitwise ``window x scale``."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fallback=st.booleans(), cache=st.booleans(),
           mismatched_fallback=st.booleans(),
           crashes=st.lists(st.tuples(st.sampled_from("ab"),
                                      st.integers(0, 5)), max_size=3),
           stragglers=st.lists(st.tuples(st.sampled_from("ab"),
                                         st.integers(0, 5),
                                         st.integers(1, 4),
                                         st.sampled_from([2.0, 10.0])),
                               max_size=2))
    def test_every_admitted_ticket_returns_once(
            self, data, fallback, cache, mismatched_fallback, crashes,
            stragglers):
        plan = FaultPlan()
        for dep, at in crashes:
            plan = plan.session_crash(dep, at_dispatch=at)
        for dep, start, length, slowdown in stragglers:
            plan = plan.session_straggler(dep, slowdown, start_dispatch=start,
                                          end_dispatch=start + length)
        gw = make_gw(fallback=fallback, fault_plan=plan,
                     fallback_nodes=N + 2 if mismatched_fallback else N,
                     cache_ttl=0.004 if cache else None)
        windows = make_windows(4, seed=3)
        sent = {}           # admitted ticket -> window index
        answers = []        # (terminal response, window index)
        returned = []
        for _ in range(data.draw(st.integers(1, 8), label="rounds")):
            for i in data.draw(st.lists(st.integers(0, 3), min_size=1,
                                        max_size=5), label="burst"):
                resp = gw.submit(KEY, "a", windows[i])
                if resp.status == "admitted":
                    ticket = (resp.deployment, resp.request_id)
                    assert ticket not in sent
                    sent[ticket] = i
                else:
                    answers.append((resp, i))
            returned += (gw.flush() if data.draw(st.booleans(), label="flush")
                         else gw.poll())
            gw.clock.advance(data.draw(
                st.sampled_from([0.0, 0.005, 2 * RESET_TIMEOUT]),
                label="advance"))
        returned += gw.flush()
        tickets = [(r.deployment, r.request_id) for r in returned]
        assert sorted(tickets) == sorted(sent)          # each exactly once
        assert not gw._pending
        answers += [(r, sent[t]) for r, t in zip(returned, tickets)]
        for r, i in answers:
            if r.ok:
                np.testing.assert_array_equal(r.forecast.predictions,
                                              expected(windows[i])[..., 0])
            else:
                assert r.status in ("failed", "shed")


# ======================================================================
class TestBuildGatewayResilience:
    def test_fallback_routes_thread_through(self):
        gw = build_gateway(
            {"a": ToySession(), "b": ToySession()}, tenants=["ops"],
            clock=ManualClock(), max_batch=4, service_time=service_time,
            fallbacks={"a": "b"},
            fault_plan=FaultPlan().session_crash("a", at_dispatch=0))
        key = gw.tenants.get("ops").api_key
        for w in make_windows(2):                  # two failures trip it
            r = gw.request(key, "a", w)
            assert r.status == "degraded"
            assert r.degraded_source == "fallback:b"
        desc = gw.describe()["resilience"]
        assert desc["degraded_fallback"] == 2
        assert desc["breakers"]["a"]["state"] == OPEN

    def test_rejects_unknown_fallback(self):
        with pytest.raises(ValueError, match="unknown"):
            build_gateway({"a": ToySession()}, fallbacks={"a": "zzz"})

    def test_rejects_self_fallback(self):
        with pytest.raises(ValueError, match="own"):
            build_gateway({"a": ToySession()}, fallbacks={"a": "a"})
