"""Chaos tier: elastic scaling under injected faults.

Two acceptance pins:

- a rank crash *after* an elastic (resharded) resume recovers through
  the checkpoint loop to a curve bitwise identical to the fault-free
  elastic run — resharding does not weaken the recovery contract;
- a shard worker killed mid scale-up (standby already spent on the
  resize) repartitions, the autoscaler re-converges under its SLO by
  trace end, and predictions stay bitwise correct — membership chaos
  never corrupts served state.
"""

import numpy as np
import pytest

from repro.api import RunSpec, run
from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.elastic import (
    AutoscalerPolicy,
    ShardAutoscaler,
    run_autoscaled_trace,
    shard_scaled_service_time,
)
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import FaultPlan, FaultyTransport, ProcessGroup, SimTransport
from repro.serving import ShardedSession
from repro.serving.service import ForecastService
from repro.training import DDPStrategy, DDPTrainer, train_with_recovery
from repro.training.checkpoint import read_checkpoint_meta

SEED = 0
EPOCHS = 2
GLOBAL_BATCH = 16


# ---------------------------------------------------------------------------
# Training: rank crash after an elastic resume
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def data():
    ds = load_dataset("pems-bay", nodes=10, entries=260, seed=SEED)
    idx = IndexDataset.from_dataset(ds, horizon=4)
    supports = dual_random_walk_supports(ds.graph.weights)
    return idx, supports


def make_trainer(data, *, world, plan=None, ckpt=None, checkpoint_every=2):
    idx, supports = data
    model = PGTDCRNN(supports, horizon=4, in_features=2, hidden_dim=8,
                     seed=SEED)
    base = SimTransport(world)
    t = base if plan is None else FaultyTransport(base, plan)
    return DDPTrainer(
        model, Adam(model.parameters(), lr=0.01), ProcessGroup(t),
        IndexBatchLoader(idx, "train", GLOBAL_BATCH // world),
        IndexBatchLoader(idx, "val", GLOBAL_BATCH // world),
        strategy=DDPStrategy.DIST_INDEX, seed=SEED,
        checkpoint_every=checkpoint_every if ckpt else None,
        checkpoint_path=ckpt)


def curve(history):
    return [(h.train_loss, h.val_mae) for h in history]


class TestElasticCrashRecovery:
    def seed_checkpoint(self, data, path):
        tr = make_trainer(data, world=2)
        tr.fit(1)
        tr.save_training_checkpoint(path, epoch=1, step=0)

    def run_elastic(self, data, path, plan=None):
        return train_with_recovery(
            lambda: make_trainer(data, world=4, plan=plan, ckpt=path),
            EPOCHS, elastic=True)

    def test_crash_after_reshard_recovers_bitwise(self, data, tmp_path):
        clean_ckpt = str(tmp_path / "clean.npz")
        self.seed_checkpoint(data, clean_ckpt)
        _, clean_history, clean_report = self.run_elastic(data, clean_ckpt)
        assert clean_report.restarts == 0

        ckpt = str(tmp_path / "chaos.npz")
        self.seed_checkpoint(data, ckpt)
        plan = FaultPlan().rank_crash(step=5, rank=1)
        _, history, report = self.run_elastic(data, ckpt, plan=plan)
        assert report.restarts == 1
        assert curve(history) == curve(clean_history)

        # The checkpoint survived the crash at the new world and still
        # resumes cleanly.
        state = read_checkpoint_meta(ckpt)["extra"]["training_state"]
        assert state["world_size"] == 4
        again = make_trainer(data, world=4)
        again.resume(ckpt)


# ---------------------------------------------------------------------------
# Serving: worker death mid scale-up
# ---------------------------------------------------------------------------
SPEC = dict(dataset="pems-bay", model="pgt-dcrnn", batching="index",
            scale="tiny", seed=0, epochs=1)
SEGMENTS = [(500.0, 3), (2200.0, 6), (500.0, 4)]


@pytest.fixture(scope="module")
def trained():
    return run(RunSpec(**SPEC))


@pytest.fixture(scope="module")
def pool(trained):
    test = trained.artifacts.loaders.test
    xb, _ = test.batch_at(np.arange(test.batch_size))
    return xb.copy()


def warm(session, trained):
    ds = trained.artifacts.dataset
    for values, ts in zip(ds.signals[:2 * session.horizon],
                          ds.timestamps[:2 * session.horizon]):
        session.ingest(values, float(ts))


class TestScaleUpUnderFire:
    def run_trace(self, trained, pool, plan=None):
        sess = ShardedSession(trained.artifacts.model,
                              trained.artifacts.loaders.scaler,
                              trained.artifacts.dataset.graph,
                              spec=trained.spec, num_shards=2,
                              num_standby=2, fault_plan=plan)
        warm(sess, trained)
        svc = ForecastService(
            sess, max_batch=8,
            service_time=shard_scaled_service_time(sess, base=2e-3,
                                                   per_item=1e-3))
        policy = AutoscalerPolicy(slo_p99=4.5e-3, min_shards=2, max_shards=4,
                                  scale_down_at=0.4, transition_seconds=0.02)
        auto = ShardAutoscaler(sess, policy, svc.clock)
        report = run_autoscaled_trace(svc, pool, auto, SEGMENTS,
                                      seed=0, tick_requests=40)
        return sess, report

    def test_worker_death_mid_scaleup_converges(self, trained, pool):
        """Kill a shard right after the 2->4 scale-up spent both standby
        replicas: failover must repartition, the autoscaler must climb
        back, and the trace must end inside the SLO with served bits
        uncorrupted."""
        # Tick 3 (requests 120-160) triggers the scale-up; request 200
        # lands mid tick 5, on the 4-shard fleet with standby == 0.
        plan = FaultPlan().worker_crash(shard=3, at_request=200)
        sess, report = self.run_trace(trained, pool, plan=plan)

        (event,) = sess.failover_events
        assert event.mode == "repartition"      # standby was already spent
        assert sess.faults_dropped == []
        # The collapse to 2 shards re-breached the SLO; the autoscaler
        # scaled up again rather than staying degraded.
        modes = [e.mode for e in sess.scale_events]
        assert modes.count("scale_up") >= 2
        assert report.ticks[-1]["p99"] <= report.slo_p99
        assert sess.num_shards == report.shards_path[-1]
        # SLO damage is bounded to the transition ticks.
        assert report.slo_compliance >= 0.80

        # Served state survived the chaos: the same observations yield
        # the same forecast as an untouched fleet.
        flat = ShardedSession(trained.artifacts.model,
                              trained.artifacts.loaders.scaler,
                              trained.artifacts.dataset.graph,
                              spec=trained.spec,
                              num_shards=sess.num_shards)
        warm(flat, trained)
        np.testing.assert_array_equal(sess.forecast_current().copy(),
                                      flat.forecast_current().copy())

    def test_chaos_trace_is_deterministic(self, trained, pool):
        plans = [FaultPlan().worker_crash(shard=3, at_request=200)
                 for _ in range(2)]
        _, first = self.run_trace(trained, pool, plan=plans[0])
        _, second = self.run_trace(trained, pool, plan=plans[1])
        assert first.ticks == second.ticks
        assert first.events == second.events
