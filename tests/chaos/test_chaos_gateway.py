"""Chaos tier: the gateway self-heals around injected serving faults.

Acceptance pins, all exact (synthetic service times on a ManualClock,
real trained tiny model):

- a ``session_crash`` mid-traffic trips the circuit, degraded answers
  come from the fallback deployment **bitwise equal** to a calm
  gateway's answers, and the probe restarts the session and closes the
  circuit again;
- chaos composed with ``GatewayLoadGenerator`` streams answers every
  admitted request (``failed == 0``) with zero deadline misses, and the
  circuit-transition log is deterministic across identical runs;
- a ``store_corruption`` flip is caught by the fingerprint check and
  recomputed, never served;
- a swap to a broken session is refused before the flip, with blue
  serving bitwise and its queue intact.
"""

import numpy as np
import pytest

from repro.api import RunSpec, build_gateway, run
from repro.runtime import FaultPlan
from repro.serving import (
    GatewayLoadGenerator,
    ManualClock,
    TenantStream,
)
from repro.serving.resilience import RESET_TIMEOUT
from repro.utils.errors import SessionFailure

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


def service_time(n: int) -> float:
    return 1e-3 + 1e-4 * n


def make_gw(trained, *, fault_plan=None, fallback=True, cache_ttl=None,
            **kw):
    sources = {"bay": trained}
    if fallback:
        sources["standby"] = trained
    return build_gateway(
        sources, tenants=[{"tenant_id": "ops", "api_key": "key-ops"}],
        clock=ManualClock(), max_batch=4,
        service_time=service_time, cache_ttl=cache_ttl,
        fallbacks={"bay": "standby"} if fallback else None,
        fault_plan=fault_plan, **kw)


def reasons(gw, deployment=None):
    return [t["reason"] for t in gw.resilience.transitions(deployment)]


class TestSessionCrashChaos:
    def test_crash_degrades_to_fallback_bitwise_then_recovers(
            self, trained, pool):
        """Crash -> fallback answers bitwise equal to a calm gateway ->
        circuit opens -> probe restarts -> closed again."""
        calm = make_gw(trained, fallback=False)
        refs = [calm.request("key-ops", "bay", pool[i]).forecast.predictions
                for i in range(3)]

        plan = FaultPlan().session_crash("bay", at_dispatch=0)
        gw = make_gw(trained, fault_plan=plan)
        # First request: dispatch fails, the ladder re-routes to the
        # fallback deployment.
        r0 = gw.request("key-ops", "bay", pool[0])
        assert r0.status == "degraded"
        assert r0.degraded_source == "fallback:standby"
        assert r0.deployment == "bay"       # ticket identity preserved
        np.testing.assert_array_equal(r0.forecast.predictions, refs[0])

        # Second failed request: the circuit opens, the fallback answers.
        r1 = gw.request("key-ops", "bay", pool[1])
        assert r1.status == "degraded"
        np.testing.assert_array_equal(r1.forecast.predictions, refs[1])
        assert reasons(gw, "bay") == ["failures"]

        # Past the reset timeout the probe restarts the dead session and
        # the recovered answer is a normal, bitwise-identical compute.
        gw.clock.advance(RESET_TIMEOUT)
        r2 = gw.request("key-ops", "bay", pool[2])
        assert r2.status == "ok"
        np.testing.assert_array_equal(r2.forecast.predictions, refs[2])
        assert reasons(gw, "bay") == ["failures", "timeout", "probe_ok"]
        assert gw.deployments.get("bay").restarts == 1
        assert gw.stats.failed == 0

    def test_crash_without_fallback_serves_stale_bitwise(self, trained,
                                                         pool):
        """With a warm cache entry, an outage is bridged by the stale
        copy — bitwise equal to the original computation."""
        gw = make_gw(trained, fallback=False, cache_ttl=0.01,
                     fault_plan=FaultPlan().session_crash(
                         "bay", at_dispatch=1))
        warm = gw.request("key-ops", "bay", pool[0])
        gw.clock.advance(0.02)              # entry expires, stays resident
        stale = gw.request("key-ops", "bay", pool[0])
        assert stale.status == "degraded"
        assert stale.degraded_source == "stale_cache"
        np.testing.assert_array_equal(stale.forecast.predictions,
                                      warm.forecast.predictions)


class TestChaosUnderLoad:
    PLAN = (FaultPlan()
            .session_crash("bay", at_dispatch=8)
            .session_straggler("bay", 4.0, start_dispatch=20,
                               end_dispatch=26))

    def drive(self, trained, pool):
        gw = make_gw(trained, fault_plan=self.PLAN)
        streams = [TenantStream(api_key="key-ops", deployment="bay",
                                rate_qps=800.0, requests=120,
                                deadline=0.25)]
        report = GatewayLoadGenerator(gw, pool, seed=7).open_loop(
            streams, scenario="gateway-chaos")
        return gw, report

    def test_every_admitted_request_is_answered(self, trained, pool):
        gw, report = self.drive(trained, pool)
        assert report.requests == 120
        assert report.failed == 0
        assert report.deadline_misses == 0
        assert report.degraded > 0          # the chaos actually bit
        assert gw.resilience.restarts >= 1  # the probe revived the session
        assert gw.stats.completed == gw.stats.admitted
        assert not gw._pending

    def test_transitions_deterministic_across_runs(self, trained, pool):
        gw1, rep1 = self.drive(trained, pool)
        gw2, rep2 = self.drive(trained, pool)
        assert gw1.resilience.transitions() == gw2.resilience.transitions()
        assert rep1.to_dict() == rep2.to_dict()
        assert gw1.resilience.transitions()     # non-trivial log


class TestStoreCorruptionChaos:
    def test_corrupted_entry_is_never_served(self, trained, pool):
        plan = FaultPlan().store_corruption("bay", at_insert=0)
        gw = make_gw(trained, fallback=False, cache_ttl=60.0,
                     fault_plan=plan)
        first = gw.request("key-ops", "bay", pool[0])
        again = gw.request("key-ops", "bay", pool[0])
        assert not again.cached             # fingerprint caught the flip
        assert gw.cache.stats.corruptions_detected == 1
        np.testing.assert_array_equal(again.forecast.predictions,
                                      first.forecast.predictions)
        # The recomputed answer re-seeds the cache and hits cleanly.
        third = gw.request("key-ops", "bay", pool[0])
        assert third.cached
        np.testing.assert_array_equal(third.forecast.predictions,
                                      first.forecast.predictions)


class _BrokenSession:
    """Wraps a real session; predictions always fail."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def predict(self, x):
        raise SessionFailure("green checkpoint is broken")


class TestBrokenGreenChaos:
    def test_broken_green_is_refused_with_zero_drops(self, trained, pool):
        gw = make_gw(trained, fallback=False)
        before = gw.request("key-ops", "bay", pool[0])
        dep = gw.deployments["bay"]
        blue = dep.session
        queued = gw.submit("key-ops", "bay", pool[1])
        with pytest.raises(SessionFailure, match="broken"):
            gw.swap("bay", lambda: _BrokenSession(blue),
                    version="v2-broken")
        assert dep.session is blue and dep.in_flight == 1
        (drained,) = gw.poll()
        assert drained.request_id == queued.request_id
        assert drained.status == "ok" and drained.version == before.version
        after = gw.request("key-ops", "bay", pool[0])
        assert after.version == before.version          # still blue
        np.testing.assert_array_equal(after.forecast.predictions,
                                      before.forecast.predictions)
        assert gw.stats.failed == 0
