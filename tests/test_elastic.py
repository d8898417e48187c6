"""Elastic scale: checkpoint resharding, serving scale_to, autoscaler,
capacity planner.

The load-bearing pins:

- reshard W -> W' -> W and resume == uninterrupted run, **bitwise**, for
  every DDP strategy (nothing numeric moves at an epoch boundary);
- under a global shuffle, reshard W -> W' and resume matches a *fresh*
  W'-world run to 1e-6 — including W' = 1 and W' > W — because the
  preserved global batch walks the same per-step sample sets;
- partition-dependent shuffles reshard only at epoch boundaries and
  refuse mid-epoch cursors loudly;
- a resharded checkpoint resumes to identical bits on every transport;
- ``ShardedSession.scale_to`` keeps predictions bitwise stable across
  resizes and refuses non-partition ownership (overlaps and gaps);
- the autoscaler doubles/halves inside its policy bounds with cooldown
  and hysteresis, and the planner picks minimal sizes that meet budgets.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.elastic import (
    AutoscalerPolicy,
    ShardAutoscaler,
    autoscaler_setpoints,
    plan_serving,
    plan_training,
    read_reshard_history,
    reshard_checkpoint,
)
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import ProcessGroup
from repro.serving.service import ManualClock
from repro.training import DDPStrategy, DDPTrainer, train_with_recovery
from repro.training.checkpoint import read_checkpoint_meta, write_archive
from repro.utils.errors import CheckpointError, ReshardError, ShapeError

SEED = 0
EPOCHS = 2
GLOBAL_BATCH = 16          # world x per-rank batch, preserved by reshard


@pytest.fixture(scope="module")
def data():
    ds = load_dataset("pems-bay", nodes=10, entries=260, seed=SEED)
    idx = IndexDataset.from_dataset(ds, horizon=4)
    supports = dual_random_walk_supports(ds.graph.weights)
    return idx, supports


def make_trainer(data, *, world=2, strategy=DDPStrategy.DIST_INDEX,
                 transport="sim", ckpt=None, checkpoint_every=None,
                 **kw):
    idx, supports = data
    batch, rem = divmod(GLOBAL_BATCH, world)
    assert rem == 0
    model = PGTDCRNN(supports, horizon=4, in_features=2, hidden_dim=8,
                     seed=SEED)
    pg = {"sim": ProcessGroup.sim, "thread": ProcessGroup.threads,
          "process": ProcessGroup.processes}[transport](world)
    return DDPTrainer(
        model, Adam(model.parameters(), lr=0.01), pg,
        IndexBatchLoader(idx, "train", batch),
        IndexBatchLoader(idx, "val", batch),
        strategy=strategy, seed=SEED,
        # Gradient clipping is applied per rank *before* averaging, so it
        # is batch-size-nonlinear: fresh-run equivalence across worlds
        # only holds without it (round trips back to the same world stay
        # bitwise either way).
        clip_norm=0.0,
        checkpoint_every=checkpoint_every if ckpt else None,
        checkpoint_path=ckpt, **kw)


def curve(history):
    return [(h.train_loss, h.val_mae) for h in history]


def boundary_checkpoint(data, path, *, strategy=DDPStrategy.DIST_INDEX,
                        epochs=1, **kw):
    """Train ``epochs`` at world 2 and save an epoch-boundary cursor."""
    tr = make_trainer(data, world=2, strategy=strategy, **kw)
    tr.fit(epochs)
    tr.save_training_checkpoint(path, epoch=epochs, step=0)
    return tr


def training_state(path):
    return read_checkpoint_meta(path)["extra"]["training_state"]


# ---------------------------------------------------------------------------
# Tentpole pin 1: round trips are bitwise for every strategy
# ---------------------------------------------------------------------------
class TestReshardRoundTrip:
    @pytest.mark.parametrize("strategy", list(DDPStrategy))
    def test_w2_w4_w2_resume_is_bitwise(self, data, tmp_path, strategy):
        reference = curve(make_trainer(data, strategy=strategy).fit(EPOCHS))
        ckpt = str(tmp_path / "round.npz")
        boundary_checkpoint(data, ckpt, strategy=strategy)
        reshard_checkpoint(ckpt, 4)
        reshard_checkpoint(ckpt, 2)
        resumed = make_trainer(data, strategy=strategy)
        resumed.resume(ckpt)
        assert curve(resumed.fit(EPOCHS)) == reference
        assert [h["to_world"] for h in read_reshard_history(ckpt)] == [4, 2]

    def test_report_accounts_state_bytes(self, data, tmp_path):
        ckpt = str(tmp_path / "report.npz")
        boundary_checkpoint(data, ckpt)
        report = reshard_checkpoint(ckpt, 4)
        assert report.old_world == 2 and report.new_world == 4
        assert report.old_batch == 8 and report.new_batch == 4
        assert report.global_batch == GLOBAL_BATCH
        assert not report.midepoch
        # Adam keeps two fp32 slots per parameter.
        assert report.slot_bytes == 2 * report.param_bytes
        assert report.param_bytes > 0 and report.seconds > 0
        assert "2->4" in report.summary()


# ---------------------------------------------------------------------------
# Tentpole pin 2: fresh-run equivalence under world-invariant shuffles
# ---------------------------------------------------------------------------
class TestFreshRunMatch:
    """Global shuffle deals one world-independent permutation round-robin,
    so a W-trained prefix + reshard continues exactly where a fresh W'
    run would be — to float-regrouping tolerance (1e-6 class)."""

    STRATEGIES = [DDPStrategy.BASELINE_DDP, DDPStrategy.DIST_INDEX]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("new_world", [1, 4])   # W' < W and W' > W
    def test_boundary_reshard_matches_fresh_world(self, data, tmp_path,
                                                  strategy, new_world):
        fresh = curve(make_trainer(data, world=new_world,
                                   strategy=strategy).fit(EPOCHS))
        ckpt = str(tmp_path / f"to{new_world}.npz")
        boundary_checkpoint(data, ckpt, strategy=strategy)
        reshard_checkpoint(ckpt, new_world)
        resumed = make_trainer(data, world=new_world, strategy=strategy)
        resumed.resume(ckpt)
        got = curve(resumed.fit(EPOCHS))
        # Epoch 0 predates the reshard (trained at world 2); every epoch
        # after the world change must match the fresh-W' curve.
        np.testing.assert_allclose(got[1:], fresh[1:], atol=1e-6, rtol=0)

    def test_midepoch_global_cursor_transfers(self, data, tmp_path):
        """A mid-epoch cursor under the global shuffle resumes at a new
        world and still lands on the fresh-run curve: the step covers
        the same permutation slice at any world."""
        fresh = curve(make_trainer(data, world=4).fit(1))
        ckpt = str(tmp_path / "mid.npz")
        tr = make_trainer(data, world=2, ckpt=ckpt, checkpoint_every=6)
        tr.fit(1)
        state = training_state(ckpt)
        assert 0 < state["step"] < state["epoch_steps"]   # genuinely mid
        report = reshard_checkpoint(ckpt, 4)
        assert report.midepoch
        # Partial-epoch losses are reweighted to new-world entry counts
        # around their exact mean, keeping the epoch mean unskewed.
        losses = training_state(ckpt)["epoch_losses"]
        assert len(losses) == state["step"] * 4
        np.testing.assert_allclose(np.mean(losses),
                                   np.mean(state["epoch_losses"]))
        resumed = make_trainer(data, world=4)
        resumed.resume(ckpt)
        got = curve(resumed.fit(1))
        np.testing.assert_allclose(got, fresh, atol=1e-5, rtol=1e-5)


class TestPartitionDependentShuffles:
    """GENERALIZED_INDEX defaults to the paper's batch shuffle, whose
    per-rank order keys on the partition: no cross-world bitwise claim
    exists, but epoch-boundary resharding stays sound and deterministic
    (the paper's Table-5 accuracy-equivalence argument)."""

    def test_boundary_reshard_is_deterministic(self, data, tmp_path):
        ckpt = str(tmp_path / "gen.npz")
        boundary_checkpoint(data, ckpt,
                            strategy=DDPStrategy.GENERALIZED_INDEX)
        reshard_checkpoint(ckpt, 4)

        def continuation():
            tr = make_trainer(data, world=4,
                              strategy=DDPStrategy.GENERALIZED_INDEX)
            tr.resume(ckpt)
            return curve(tr.fit(EPOCHS))

        first = continuation()
        assert continuation() == first          # pinned deterministic

    def test_accuracy_level_equivalence(self, data, tmp_path):
        fresh = make_trainer(
            data, world=4,
            strategy=DDPStrategy.GENERALIZED_INDEX).fit(EPOCHS)
        ckpt = str(tmp_path / "gen-acc.npz")
        boundary_checkpoint(data, ckpt,
                            strategy=DDPStrategy.GENERALIZED_INDEX)
        reshard_checkpoint(ckpt, 4)
        resumed = make_trainer(data, world=4,
                               strategy=DDPStrategy.GENERALIZED_INDEX)
        resumed.resume(ckpt)
        got = resumed.fit(EPOCHS)
        assert abs(got[-1].val_mae - fresh[-1].val_mae) \
            < 0.25 * fresh[-1].val_mae

    def test_midepoch_cursor_is_refused(self, data, tmp_path):
        ckpt = str(tmp_path / "gen-mid.npz")
        tr = make_trainer(data, world=2,
                          strategy=DDPStrategy.GENERALIZED_INDEX,
                          ckpt=ckpt, checkpoint_every=6)
        tr.fit(1)
        with pytest.raises(ReshardError, match="mid-epoch.*epoch-boundary"):
            reshard_checkpoint(ckpt, 4)
        # Refusal must leave the archive untouched and still resumable.
        assert training_state(ckpt)["world_size"] == 2
        again = make_trainer(data, world=2,
                             strategy=DDPStrategy.GENERALIZED_INDEX)
        again.resume(ckpt)


# ---------------------------------------------------------------------------
# Transports: a resharded archive is fabric-agnostic
# ---------------------------------------------------------------------------
class TestCrossTransport:
    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_resharded_resume_matches_sim_bitwise(self, data, tmp_path,
                                                  transport):
        ckpt = str(tmp_path / f"{transport}.npz")
        boundary_checkpoint(data, ckpt)
        reshard_checkpoint(ckpt, 4)
        sim = make_trainer(data, world=4)
        sim.resume(ckpt)
        reference = curve(sim.fit(EPOCHS))
        other = make_trainer(data, world=4, transport=transport)
        try:
            other.resume(ckpt)
            got = curve(other.fit(EPOCHS))
        finally:
            shutdown = getattr(other.comm.transport, "shutdown", None)
            if shutdown:
                shutdown()
        assert got == reference


# ---------------------------------------------------------------------------
# Property: reshard composition over the divisor lattice
# ---------------------------------------------------------------------------
class TestReshardProperties:
    @pytest.fixture(scope="class")
    def archive(self, data, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("elastic") / "base.npz")
        boundary_checkpoint(data, path)
        return path

    @settings(max_examples=15, deadline=None)
    @given(worlds=st.lists(st.sampled_from([1, 2, 4, 8, 16]),
                           min_size=1, max_size=4))
    def test_chained_reshards_compose(self, archive, tmp_path_factory,
                                      worlds):
        """reshard(...reshard(a, w1)..., wn) == reshard(a, wn): the
        cursor transformation is path-independent (state and arrays),
        and only ``reshard_history`` remembers the route."""
        base = tmp_path_factory.mktemp("prop")
        chained = str(base / "chained.npz")
        direct = str(base / "direct.npz")
        reshard_checkpoint(archive, worlds[0], chained)
        for w in worlds[1:]:
            reshard_checkpoint(chained, w)
        reshard_checkpoint(archive, worlds[-1], direct)

        s_chain, s_direct = training_state(chained), training_state(direct)
        assert s_chain == s_direct
        assert s_chain["world_size"] == worlds[-1]
        assert s_chain["batch_size"] * worlds[-1] == GLOBAL_BATCH
        with np.load(chained) as a, np.load(direct) as b:
            keys = set(a.files) - {"__meta__"}
            assert keys == set(b.files) - {"__meta__"}
            for k in keys:
                np.testing.assert_array_equal(a[k], b[k])
        assert [h["to_world"] for h in read_reshard_history(chained)] \
            == worlds
        assert [h["to_world"] for h in read_reshard_history(direct)] \
            == [worlds[-1]]


# ---------------------------------------------------------------------------
# Refusals: every unsound transformation fails loudly
# ---------------------------------------------------------------------------
class TestReshardErrors:
    @pytest.fixture(scope="class")
    def archive(self, data, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("errs") / "base.npz")
        boundary_checkpoint(data, path)
        return path

    def test_indivisible_world_refused(self, archive):
        with pytest.raises(ReshardError, match="does not divide"):
            reshard_checkpoint(archive, 3)

    def test_nonpositive_world_refused(self, archive):
        with pytest.raises(ReshardError, match=">= 1"):
            reshard_checkpoint(archive, 0)

    def test_non_resumable_checkpoint_refused(self, data, tmp_path):
        from repro.training.checkpoint import save_checkpoint
        idx, supports = data
        model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=SEED)
        path = str(tmp_path / "plain.npz")
        save_checkpoint(path, model)
        with pytest.raises(ReshardError, match="training cursor"):
            reshard_checkpoint(path, 4)

    def test_missing_archive_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            reshard_checkpoint(str(tmp_path / "nope.npz"), 2)

    def _legacy_copy(self, archive, path):
        """A pre-elastic archive: no recorded batch_size/epoch_steps."""
        with np.load(archive) as a:
            arrays = {k: a[k] for k in a.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        state = meta["extra"]["training_state"]
        del state["batch_size"], state["epoch_steps"]
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8)
        write_archive(path, arrays)

    def test_legacy_archive_needs_batch_size(self, archive, tmp_path):
        legacy = str(tmp_path / "legacy.npz")
        self._legacy_copy(archive, legacy)
        with pytest.raises(ReshardError, match="batch_size"):
            reshard_checkpoint(legacy, 4)
        report = reshard_checkpoint(legacy, 4, batch_size=8)
        assert report.new_batch == 4

    def test_contradictory_batch_size_refused(self, archive, tmp_path):
        out = str(tmp_path / "copy.npz")
        with pytest.raises(ReshardError, match="contradicts"):
            reshard_checkpoint(archive, 4, out, batch_size=5)

    def test_resume_with_wrong_loader_batch_refused(self, data, tmp_path,
                                                    archive):
        """The resharded world is right but the loaders were not shrunk:
        the global batch would drift, so resume() refuses."""
        out = str(tmp_path / "w1.npz")
        reshard_checkpoint(archive, 1, out)
        idx, supports = data
        model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=SEED)
        wrong = DDPTrainer(model, Adam(model.parameters(), lr=0.01),
                           ProcessGroup.sim(1),
                           IndexBatchLoader(idx, "train", 8),  # not 16
                           seed=SEED, clip_norm=0.0)
        with pytest.raises(ValueError, match="batch_size=16"):
            wrong.resume(out)


# ---------------------------------------------------------------------------
# Recovery integration: elastic relaunches reshard in place
# ---------------------------------------------------------------------------
class TestElasticRecovery:
    def test_relaunch_at_new_world_resumes(self, data, tmp_path):
        ckpt = str(tmp_path / "elastic.npz")
        fresh4 = curve(make_trainer(data, world=4).fit(EPOCHS))
        tr2 = make_trainer(data, world=2)
        tr2.fit(1)
        tr2.save_training_checkpoint(ckpt, epoch=1, step=0)

        def relaunch():
            return make_trainer(data, world=4, ckpt=ckpt,
                                checkpoint_every=4)

        trainer, history, report = train_with_recovery(
            relaunch, EPOCHS, elastic=True)
        assert report.restarts == 0
        np.testing.assert_allclose(curve(history)[1:], fresh4[1:],
                                   atol=1e-6, rtol=1e-6)
        assert training_state(ckpt)["world_size"] == 4

    def test_without_flag_world_change_still_fails(self, data, tmp_path):
        ckpt = str(tmp_path / "strict.npz")
        boundary_checkpoint(data, ckpt)
        with pytest.raises(ValueError, match="world of 2 ranks"):
            train_with_recovery(
                lambda: make_trainer(data, world=4, ckpt=ckpt,
                                     checkpoint_every=4),
                EPOCHS)


# ---------------------------------------------------------------------------
# Autoscaler control loop (stub session: policy logic only)
# ---------------------------------------------------------------------------
class _StubSession:
    def __init__(self, shards=2):
        self.num_shards = shards
        self.calls = []

    def scale_to(self, n):
        self.calls.append(n)
        self.num_shards = n


class TestAutoscalerPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="slo_p99"):
            AutoscalerPolicy(slo_p99=0.0)
        with pytest.raises(ValueError, match="min_shards"):
            AutoscalerPolicy(slo_p99=0.01, min_shards=4, max_shards=2)
        with pytest.raises(ValueError, match="hysteresis"):
            AutoscalerPolicy(slo_p99=0.01, scale_up_at=0.5,
                             scale_down_at=0.6)

    def make(self, shards=2, **kw):
        kw.setdefault("slo_p99", 0.010)
        kw.setdefault("min_shards", 1)
        kw.setdefault("max_shards", 8)
        kw.setdefault("transition_seconds", 0.0)
        session = _StubSession(shards)
        clock = ManualClock()
        return session, clock, ShardAutoscaler(session,
                                               AutoscalerPolicy(**kw), clock)

    def test_breach_doubles_and_records(self):
        session, _, auto = self.make(shards=2)
        event = auto.observe_p99(0.020)
        assert session.calls == [4]
        assert (event.from_shards, event.to_shards) == (2, 4)
        assert "SLO" in event.reason and auto.events == [event]

    def test_quiet_halves(self):
        session, _, auto = self.make(shards=4)
        auto.observe_p99(0.004)          # < 0.45 * slo
        assert session.calls == [2]

    def test_hysteresis_band_holds(self):
        session, _, auto = self.make(shards=4)
        assert auto.observe_p99(0.0060) is None     # inside the band
        assert auto.observe_p99(0.0099) is None
        assert session.calls == []

    def test_bounds_respected(self):
        session, _, auto = self.make(shards=8)
        assert auto.observe_p99(0.5) is None        # already at max
        session2, _, auto2 = self.make(shards=1)
        assert auto2.observe_p99(1e-6) is None      # already at min
        assert session.calls == session2.calls == []

    def test_nan_p99_holds(self):
        """An empty tick (no completions) reports NaN; never scale on it."""
        session, _, auto = self.make(shards=2)
        assert auto.observe_p99(float("nan")) is None
        assert session.calls == []

    def test_cooldown_blocks_back_to_back(self):
        session, clock, auto = self.make(shards=2, cooldown_seconds=5.0)
        auto.observe_p99(0.020)
        assert auto.observe_p99(0.020) is None      # still cooling
        clock.advance(5.0)
        auto.observe_p99(0.020)
        assert session.calls == [4, 8]

    def test_transition_cost_charged_to_clock(self):
        session, clock, auto = self.make(shards=2, transition_seconds=0.5)
        auto.observe_p99(0.020)
        assert clock.now == 0.5


# ---------------------------------------------------------------------------
# Capacity planner
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def perf():
    from repro.datasets.catalog import get_spec
    from repro.training.perfmodel import TrainingPerfModel, pgt_dcrnn_perf
    spec = get_spec("pems-bay")
    model = pgt_dcrnn_perf(spec.num_nodes, spec.horizon,
                           spec.train_features)
    return TrainingPerfModel(spec, model, batch_size=64)


class TestTrainingPlanner:
    def test_needs_a_budget(self, perf):
        with pytest.raises(ValueError, match="budget"):
            plan_training(perf, strategy="dist-index")

    def test_picks_smallest_world_meeting_budget(self, perf):
        single = perf.run("dist-index", 1, epochs=10).total_seconds
        budget = single * 0.75
        plan = plan_training(perf, strategy="dist-index", epochs=10,
                             total_budget_seconds=budget,
                             worlds=(1, 2, 4, 8))
        assert plan.meets_budget and plan.world_size > 1
        # Minimality: no smaller candidate met the budget.
        for w, _, total_s, _ in plan.sweep:
            if w < plan.world_size:
                assert total_s > budget
        assert plan.total_seconds <= budget
        assert plan.gpu_seconds == plan.world_size * plan.total_seconds
        assert str(plan.world_size) in plan.summary()

    def test_impossible_budget_returns_best_effort(self, perf):
        plan = plan_training(perf, strategy="dist-index", epochs=10,
                             total_budget_seconds=1e-3, worlds=(1, 2, 4))
        assert not plan.meets_budget
        assert plan.total_seconds == min(r[2] for r in plan.sweep)

    def test_reshard_seconds_prices_the_transition(self, perf):
        from repro.training.perfmodel import RESTART_FIXED_OVERHEAD
        cost = perf.reshard_seconds(2, 4)
        assert cost > RESTART_FIXED_OVERHEAD
        # Broadcasting over a wider world costs (weakly) more.
        assert perf.reshard_seconds(2, 64) >= cost
        with pytest.raises(ValueError):
            perf.reshard_seconds(0, 4)


class TestServingPlanner:
    @staticmethod
    def service_time(batch, shards):
        return (2e-3 + 1e-3 * batch) / shards

    def test_picks_smallest_fleet_holding_slo(self):
        plan = plan_serving(traffic_qps=2200.0, slo_p99=9e-3,
                            service_time=self.service_time, max_batch=8)
        assert plan.meets_slo and plan.shards == 4
        assert plan.utilization < 0.85
        assert plan.projected_latency <= 9e-3
        # 2 shards saturate: rho = (2200/8) * 5e-3 > 1.
        rho_at = dict((s, rho) for s, _, rho, _ in plan.sweep)
        assert rho_at[2] > 1.0

    def test_saturated_everywhere_is_best_effort(self):
        plan = plan_serving(traffic_qps=1e6, slo_p99=1e-3,
                            service_time=self.service_time,
                            shard_counts=(1, 2, 4))
        assert not plan.meets_slo and plan.shards == 4
        assert plan.projected_latency == float("inf")
        assert "BEST EFFORT" in plan.summary()

    def test_setpoints_bracket_the_traffic_envelope(self):
        policy = autoscaler_setpoints(
            low_qps=400.0, peak_qps=2200.0, slo_p99=9e-3,
            service_time=self.service_time, max_batch=8,
            cooldown_seconds=1.0)
        # 1 shard at 400 qps projects 20 ms (> SLO): the quiet floor is 2.
        assert policy.min_shards == 2
        assert policy.max_shards == 4
        assert policy.cooldown_seconds == 1.0

    def test_queueing_latency_edges(self):
        from repro.cluster.costmodel import gpu_seconds, queueing_latency
        assert queueing_latency(1e-3, 0.0) == 1e-3
        assert queueing_latency(1e-3, 0.5) == 2e-3
        assert queueing_latency(1e-3, 1.0) == float("inf")
        with pytest.raises(ValueError):
            queueing_latency(-1.0, 0.5)
        with pytest.raises(ValueError):
            gpu_seconds(0, 1.0)


# ---------------------------------------------------------------------------
# Live serving resize: ShardedSession.scale_to
# ---------------------------------------------------------------------------
from repro.api import RunSpec, run                              # noqa: E402
from repro.elastic import (                                     # noqa: E402
    run_autoscaled_trace,
    shard_scaled_service_time,
)
from repro.serving import ShardedSession                        # noqa: E402
from repro.serving.service import ForecastService               # noqa: E402

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
    kw.setdefault("num_shards", 2)
    return ShardedSession(trained.artifacts.model,
                          trained.artifacts.loaders.scaler,
                          trained.artifacts.dataset.graph,
                          spec=trained.spec, **kw)


def warm(session, trained, rows=None):
    ds = trained.artifacts.dataset
    rows = rows or 2 * session.horizon
    for values, ts in zip(ds.signals[:rows], ds.timestamps[:rows]):
        session.ingest(values, float(ts))


class TestScaleTo:
    def test_resize_round_trip_is_bitwise(self, trained):
        sess = make_sharded(trained, num_shards=2, num_standby=2)
        warm(sess, trained)
        ref = sess.forecast_current().copy()

        up = sess.scale_to(4)
        assert sess.num_shards == 4 and len(sess.workers) == 4
        np.testing.assert_array_equal(sess.forecast_current().copy(), ref)
        assert up.mode == "scale_up"
        assert (up.from_shards, up.to_shards) == (2, 4)
        assert up.standby_used == 2 and up.standby_returned == 0
        assert sess.standby == 0
        assert up.seconds > 0

        down = sess.scale_to(2)
        assert sess.num_shards == 2
        np.testing.assert_array_equal(sess.forecast_current().copy(), ref)
        assert down.mode == "scale_down"
        assert down.standby_returned == 2 and sess.standby == 2
        assert sess.scale_events == [up, down]
        assert sess.halo_stats()["scale_events"] == 2

    def test_resize_survives_fresh_ingest(self, trained):
        """State ingested *after* a resize flows into the new workers'
        stores — the replay log keeps growing across memberships."""
        sess = make_sharded(trained, num_shards=2)
        warm(sess, trained)
        sess.scale_to(4)
        flat = make_sharded(trained, num_shards=4)
        warm(flat, trained)
        ds = trained.artifacts.dataset
        nxt = 2 * sess.horizon
        sess.ingest(ds.signals[nxt], float(ds.timestamps[nxt]))
        flat.ingest(ds.signals[nxt], float(ds.timestamps[nxt]))
        np.testing.assert_array_equal(sess.forecast_current().copy(),
                                      flat.forecast_current().copy())

    def test_same_size_is_a_noop(self, trained):
        sess = make_sharded(trained, num_shards=2)
        assert sess.scale_to(2) is None
        assert sess.scale_events == []

    def test_non_power_of_two_refused(self, trained):
        sess = make_sharded(trained, num_shards=2)
        with pytest.raises(ValueError, match="power of two"):
            sess.scale_to(3)

    def test_assignment_wrong_shape_refused(self, trained):
        sess = make_sharded(trained, num_shards=2)
        with pytest.raises(ShapeError, match="assignment"):
            sess.scale_to(2, assignment=np.zeros(3, dtype=np.int64))

    def test_assignment_with_gap_refused(self, trained):
        """An explicit assignment must be a partition: every shard id in
        range and every sensor owned.  Out-of-range ids leave their
        sensors unowned."""
        sess = make_sharded(trained, num_shards=2)
        bad = np.zeros(sess.num_nodes, dtype=np.int64)
        bad[-1] = 7                                 # not a shard in [0, 2)
        with pytest.raises(ShapeError, match="assignment"):
            sess.scale_to(2, assignment=bad)

    def test_explicit_equal_size_repartition(self, trained):
        """Same shard count, different ownership: a live re-partition."""
        sess = make_sharded(trained, num_shards=2)
        warm(sess, trained)
        ref = sess.forecast_current().copy()
        flipped = 1 - sess.assignment
        event = sess.scale_to(2, assignment=flipped)
        assert event.mode == "repartition"
        np.testing.assert_array_equal(sess.assignment, flipped)
        np.testing.assert_array_equal(sess.forecast_current().copy(), ref)


class TestOverlapRegression:
    """Regression: merge paths write ``out[:, :, w.owned]`` per shard, so
    overlapping ownership silently let the last writer win.  Ownership is
    now validated as a partition at construction, failover, and resize."""

    def test_overlap_after_promotion_is_refused(self, trained):
        sess = make_sharded(trained, num_shards=2, num_standby=1)
        warm(sess, trained)
        # Corrupt shard 1 to claim shard 0's sensors, then lose it: the
        # standby promotion inherits the corrupted ownership and the
        # partition check must catch the overlap instead of serving
        # silently wrong merges.
        sess.workers[1].owned = sess.workers[0].owned.copy()
        sess.kill_worker(1)
        with pytest.raises(ShapeError, match="overlapping shard assignment"):
            sess.forecast_current()

    def test_out_of_range_ownership_is_refused(self, trained):
        sess = make_sharded(trained, num_shards=2, num_standby=1)
        warm(sess, trained)
        sess.workers[1].owned = np.array([sess.num_nodes + 3])
        sess.kill_worker(1)
        with pytest.raises(ShapeError, match="outside"):
            sess.forecast_current()


# ---------------------------------------------------------------------------
# The canonical autoscale demo: 2 -> 4 -> 2 under a traffic step, pinned
# ---------------------------------------------------------------------------
class TestAutoscaledTrace:
    def run_demo(self, trained, pool):
        sess = make_sharded(trained, num_shards=2, num_standby=2)
        # Sized for a work-conserving queue: at 4 shards the 2200 qps
        # phase settles at p99 2.75 ms, mid-way between the scale-down
        # line (1.8 ms) and the SLO, so the fleet neither flaps nor misses.
        svc = ForecastService(
            sess, max_batch=8,
            service_time=shard_scaled_service_time(sess, base=2e-3,
                                                   per_item=1.5e-3))
        policy = AutoscalerPolicy(slo_p99=4.5e-3, min_shards=2, max_shards=4,
                                  scale_down_at=0.4, transition_seconds=0.02)
        auto = ShardAutoscaler(sess, policy, svc.clock)
        report = run_autoscaled_trace(
            svc, pool, auto, [(500.0, 3), (2200.0, 5), (500.0, 4)],
            seed=0, tick_requests=40)
        return sess, report

    def test_scales_up_then_down_holding_slo(self, trained, pool):
        sess, report = self.run_demo(trained, pool)
        assert report.shards_path == [2, 2, 2, 4, 4, 4, 4, 4, 2, 2, 2, 2]
        up, down = report.events
        assert (up.from_shards, up.to_shards) == (2, 4)
        assert (down.from_shards, down.to_shards) == (4, 2)
        assert up.p99 > report.slo_p99            # breach triggered it
        assert down.p99 < 0.4 * report.slo_p99    # quiet triggered it
        # Standby replicas funded the scale-up and returned on the way down.
        assert sess.standby == 2
        assert [e.mode for e in sess.scale_events] == ["scale_up",
                                                       "scale_down"]

    def test_transitions_converge_and_slo_mostly_holds(self, trained, pool):
        _, report = self.run_demo(trained, pool)
        assert report.requests == 480
        # Misses concentrate in the one overloaded tick before the
        # scale-up lands; every other tick serves inside the deadline.
        assert report.deadline_misses == report.ticks[3]["deadline_misses"] \
            == 36
        assert report.slo_compliance == pytest.approx(444 / 480)
        up_conv, down_conv = report.convergence_seconds
        assert 0.0 < up_conv < 0.1                # first post-resize tick
        assert down_conv == 0.0                   # already under SLO
        assert "2->4->2" in report.summary()

    def test_trace_is_deterministic(self, trained, pool):
        _, first = self.run_demo(trained, pool)
        _, second = self.run_demo(trained, pool)
        assert first.ticks == second.ticks
        assert first.events == second.events
