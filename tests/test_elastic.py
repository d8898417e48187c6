"""Elastic scale: checkpoint resharding and the training capacity planner.

The load-bearing pins:

- reshard W -> W' -> W and resume == uninterrupted run, **bitwise**, for
  every DDP strategy (nothing numeric moves at an epoch boundary);
- under a global shuffle, reshard W -> W' and resume matches a *fresh*
  W'-world run to 1e-6 — including W' = 1 and W' > W — because the
  preserved global batch walks the same per-step sample sets;
- partition-dependent shuffles reshard only at epoch boundaries and
  refuse mid-epoch cursors loudly;
- a resharded checkpoint resumes to identical bits on every transport;
- the planner picks the minimal world that meets a budget.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.elastic import plan_training, reshard_checkpoint
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import ProcessGroup
from repro.training import DDPStrategy, DDPTrainer, train_with_recovery
from repro.training.checkpoint import read_checkpoint_meta, write_archive
from repro.utils.errors import CheckpointError, ReshardError

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
    pg = {"sim": ProcessGroup.sim,
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
    @pytest.mark.parametrize("transport", ["process"])
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
        cursor transformation is path-independent (state and arrays)."""
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

    def test_gpu_seconds_edges(self):
        from repro.cluster.costmodel import gpu_seconds
        assert gpu_seconds(4, 2.5) == 10.0
        with pytest.raises(ValueError):
            gpu_seconds(0, 1.0)
        with pytest.raises(ValueError):
            gpu_seconds(1, -1.0)

    def test_worlds_must_be_positive(self, perf):
        for worlds in ((0, 2), ()):
            with pytest.raises(ValueError, match="worlds must be positive"):
                plan_training(perf, strategy="dist-index",
                              total_budget_seconds=1.0, worlds=worlds)

    def test_sweep_covers_every_candidate_in_order(self, perf):
        plan = plan_training(perf, strategy="dist-index", epochs=4,
                             total_budget_seconds=1e9, worlds=(4, 1, 2))
        assert [row[0] for row in plan.sweep] == [1, 2, 4]
        for w, _, total_s, gpu_s in plan.sweep:
            assert gpu_s == w * total_s
        # Any world meets an unbounded budget: the smallest is chosen.
        assert plan.world_size == 1 and plan.meets_budget

    def test_both_budgets_must_hold(self, perf):
        sweep = plan_training(perf, strategy="dist-index", epochs=10,
                              total_budget_seconds=1e9,
                              worlds=(1, 2, 4, 8)).sweep
        # A loose total budget and world 8's epoch time as the epoch budget.
        epoch_budget = sweep[-1][1]
        plan = plan_training(perf, strategy="dist-index", epochs=10,
                             epoch_budget_seconds=epoch_budget,
                             total_budget_seconds=1e9,
                             worlds=(1, 2, 4, 8))
        assert plan.epoch_seconds <= epoch_budget
        for w, epoch_s, _, _ in plan.sweep:
            if w < plan.world_size:
                assert epoch_s > epoch_budget
        # The same epoch budget with a total budget nobody meets.
        tight = plan_training(perf, strategy="dist-index", epochs=10,
                              epoch_budget_seconds=epoch_budget,
                              total_budget_seconds=1e-3,
                              worlds=(1, 2, 4, 8))
        assert not tight.meets_budget

    def test_best_effort_summary_says_so(self, perf):
        plan = plan_training(perf, strategy="dist-index", epochs=10,
                             total_budget_seconds=1e-3, worlds=(1, 2))
        assert "BEST EFFORT" in plan.summary()
        ok = plan_training(perf, strategy="dist-index", epochs=10,
                           total_budget_seconds=1e9, worlds=(1, 2))
        assert "meets budget" in ok.summary()
