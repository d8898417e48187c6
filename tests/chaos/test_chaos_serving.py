"""Chaos tier: sharded serving survives worker deaths.

Acceptance pin: sharded serving with one worker killed mid-stream keeps
returning predictions equal (1e-6; in fact bitwise) to the unsharded
session, via standby promotion or survivor re-partitioning with the
halo state replayed from the observation log.  Failover latency is
recorded and surfaces through the load generator's report.
"""

import numpy as np
import pytest

from repro.api import RunSpec, run, serve
from repro.runtime import FaultPlan
from repro.serving import (
    FailoverEvent,
    LoadGenerator,
    ModelSession,
    ShardedSession,
)

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


def make_sharded(trained, **kw) -> ShardedSession:
    kw.setdefault("num_shards", 4)
    return ShardedSession(trained.artifacts.model,
                          trained.artifacts.loaders.scaler,
                          trained.artifacts.dataset.graph,
                          spec=trained.spec, **kw)


def warm(session, trained, rows=None):
    ds = trained.artifacts.dataset
    rows = rows or 2 * session.horizon
    for values, ts in zip(ds.signals[:rows], ds.timestamps[:rows]):
        session.ingest(values, float(ts))


def reference(trained):
    from repro.serving.cache import FeatureStore
    session = ModelSession(trained.artifacts.model,
                           trained.artifacts.loaders.scaler,
                           spec=trained.spec)
    session.attach_store(FeatureStore.for_dataset(
        trained.artifacts.dataset, trained.artifacts.loaders.scaler,
        capacity=4 * session.horizon))
    warm(session, trained)
    return session


class TestFailoverParity:
    def test_repartition_failover_matches_unsharded(self, trained):
        ref = reference(trained).forecast_current().copy()
        sharded = make_sharded(trained)
        warm(sharded, trained)
        np.testing.assert_array_equal(sharded.forecast_current().copy(), ref)
        sharded.kill_worker(2)
        post = sharded.forecast_current().copy()
        np.testing.assert_allclose(post, ref, atol=1e-6)
        np.testing.assert_array_equal(post, ref)   # in fact bitwise
        (event,) = sharded.failover_events
        assert event.mode == "repartition"
        assert event.shards == (2,)
        assert event.num_shards_after == 2         # largest 2^k <= 3 alive
        assert event.seconds > 0

    def test_standby_promotion_keeps_partition(self, trained):
        ref = reference(trained).forecast_current().copy()
        sharded = make_sharded(trained, num_shards=2, num_standby=1)
        warm(sharded, trained)
        before = sharded.assignment.copy()
        sharded.kill_worker(0)
        np.testing.assert_array_equal(sharded.forecast_current().copy(), ref)
        (event,) = sharded.failover_events
        assert event.mode == "standby"
        assert event.num_shards_after == 2
        assert sharded.standby == 0
        np.testing.assert_array_equal(sharded.assignment, before)

    def test_explicit_window_predictions_survive_failover(self, trained,
                                                          pool):
        local = ModelSession(trained.artifacts.model,
                             trained.artifacts.loaders.scaler,
                             spec=trained.spec)
        ref = local.predict(pool).copy()
        sharded = make_sharded(trained)
        sharded.kill_worker(1)
        np.testing.assert_array_equal(sharded.predict(pool), ref)

    def test_cascading_failures_until_one_survivor(self, trained):
        ref = reference(trained).forecast_current().copy()
        sharded = make_sharded(trained)
        warm(sharded, trained)
        sharded.kill_worker(3)
        np.testing.assert_array_equal(sharded.forecast_current().copy(), ref)
        sharded.kill_worker(1)
        np.testing.assert_array_equal(sharded.forecast_current().copy(), ref)
        assert [e.num_shards_after for e in sharded.failover_events] == [2, 1]

    def test_all_workers_dead_fails_loudly(self, trained):
        sharded = make_sharded(trained, num_shards=2)
        warm(sharded, trained)
        sharded.kill_worker(0)
        sharded.kill_worker(1)
        with pytest.raises(RuntimeError, match="cannot recover"):
            sharded.forecast_current()

    def test_rejected_ingest_never_poisons_the_replay_log(self, trained):
        """Regression: a malformed observation row is rejected back to
        its caller AND kept out of the failover replay log — otherwise a
        much later failover would explode mid-rebuild replaying it."""
        from repro.utils.errors import ShapeError

        ref = reference(trained).forecast_current().copy()
        sharded = make_sharded(trained)
        warm(sharded, trained)
        bad = np.zeros((sharded.num_nodes + 1, 1))
        with pytest.raises(ShapeError):
            sharded.ingest(bad, 0.0)
        sharded.kill_worker(0)
        # Failover replays the log; the rejected row must not be in it.
        np.testing.assert_array_equal(sharded.forecast_current().copy(), ref)

    def test_replay_log_refills_after_failover(self, trained):
        """Ingests after a failover keep flowing into the rebuilt stores:
        the session stays live, not frozen at the replayed snapshot."""
        ds = trained.artifacts.dataset
        ref = reference(trained)
        sharded = make_sharded(trained)
        warm(sharded, trained)
        sharded.kill_worker(0)
        rows = 2 * sharded.horizon
        for values, ts in zip(ds.signals[rows:rows + 3],
                              ds.timestamps[rows:rows + 3]):
            ref.ingest(values, float(ts))
            sharded.ingest(values, float(ts))
        np.testing.assert_array_equal(sharded.forecast_current().copy(),
                                      ref.forecast_current().copy())


class TestScheduledWorkerCrash:
    def test_fault_plan_kills_mid_stream(self, trained, pool):
        local = ModelSession(trained.artifacts.model,
                             trained.artifacts.loaders.scaler,
                             spec=trained.spec)
        ref = local.predict(pool).copy()
        plan = FaultPlan().worker_crash(shard=1, at_request=3)
        sharded = make_sharded(trained, fault_plan=plan)
        for _ in range(3):
            np.testing.assert_array_equal(sharded.predict(pool[:1]),
                                          ref[:1])
        assert not sharded.failover_events        # not due yet
        np.testing.assert_array_equal(sharded.predict(pool[:1]), ref[:1])
        (event,) = sharded.failover_events
        assert isinstance(event, FailoverEvent)
        assert event.at_request == 3

    def test_undeliverable_crash_is_recorded_not_silent(self, trained,
                                                        pool):
        """A due worker_crash whose shard vanished in an earlier
        repartition is logged as dropped, so a chaos run can tell
        'schedule consumed' from 'schedule fired'."""
        plan = (FaultPlan()
                .worker_crash(shard=3, at_request=1)
                .worker_crash(shard=3, at_request=2))   # gone after 4 -> 2
        sharded = make_sharded(trained, fault_plan=plan)
        sharded.predict(pool[:1])
        sharded.predict(pool[:1])
        sharded.predict(pool[:1])
        assert len(sharded.failover_events) == 1
        assert sharded.halo_stats()["faults_dropped"] == [
            "worker_crash:shard=3,request=2"]

    def test_local_server_rejects_chaos_knobs(self, trained):
        with pytest.raises(ValueError, match="server='sharded'"):
            serve(trained, fault_plan=FaultPlan().worker_crash(
                shard=0, at_request=1))
        with pytest.raises(ValueError, match="server='sharded'"):
            serve(trained, num_standby=1)

    def test_loadgen_records_failover(self, trained, pool):
        plan = FaultPlan().worker_crash(shard=1, at_request=20)
        svc = serve(trained, server="sharded", num_shards=4, max_batch=8,
                    fault_plan=plan,
                    service_time=lambda n: 0.0005 + 0.0001 * n)
        gen = LoadGenerator(svc, pool, seed=5)
        report = gen.closed_loop(requests=60, concurrency=8,
                                 scenario="chaos")
        assert report.requests == 60
        assert report.failovers == 1
        assert report.failover_p99 > 0
        assert svc.failover_events[0].at_request >= 20
        # A fault-free run reports zeroes through the same schema.
        calm = LoadGenerator(serve(trained, server="sharded", num_shards=4,
                                   service_time=lambda n: 0.0005),
                             pool, seed=5).closed_loop(requests=20)
        assert calm.failovers == 0 and calm.failover_p99 == 0.0
