"""Chaos tier: training survives injected faults with bitwise recovery.

The acceptance pin: a fixed-seed DDP run with ``rank_crash(step=k)``
injected, checkpoint-resumed via the recovery loop, finishes with a
loss curve **bitwise identical** to the uninterrupted run — for all
three data strategies.  Plus straggler/delay scenarios (time moves,
bits do not) and multi-crash endurance.
"""

import os

import numpy as np
import pytest

from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import (
    FaultPlan,
    FaultyTransport,
    ProcessGroup,
    RankFailure,
    SimTransport,
)
from repro.training import DDPStrategy, DDPTrainer, train_with_recovery

SEED = 0
WORLD = 2
EPOCHS = 2
BATCH = 8


@pytest.fixture(scope="module")
def data():
    ds = load_dataset("pems-bay", nodes=12, entries=300, seed=SEED)
    idx = IndexDataset.from_dataset(ds, horizon=4)
    supports = dual_random_walk_supports(ds.graph.weights)
    return idx, supports


def make_trainer(data, *, strategy=DDPStrategy.DIST_INDEX, plan=None,
                 ckpt=None, checkpoint_every=2, world=WORLD):
    idx, supports = data

    model = PGTDCRNN(supports, horizon=4, in_features=2, hidden_dim=8,
                     seed=SEED)
    opt = Adam(model.parameters(), lr=0.01)
    base = SimTransport(world)
    t = base if plan is None else FaultyTransport(base, plan)
    return DDPTrainer(
        model, opt, ProcessGroup(t),
        IndexBatchLoader(idx, "train", BATCH),
        IndexBatchLoader(idx, "val", BATCH),
        strategy=strategy, seed=SEED,
        checkpoint_every=checkpoint_every if ckpt else None,
        checkpoint_path=ckpt)


def curve(history):
    return [(h.train_loss, h.val_mae) for h in history]


class TestCrashRecovery:
    @pytest.mark.parametrize("strategy", list(DDPStrategy))
    def test_crash_resume_is_bitwise_identical(self, data, tmp_path,
                                               strategy):
        """Acceptance: crash at step k + resume == uninterrupted run,
        bit for bit, for every data strategy."""
        clean = curve(make_trainer(data, strategy=strategy).fit(EPOCHS))
        plan = FaultPlan().rank_crash(step=5, rank=1)
        ckpt = str(tmp_path / f"{strategy.value}.npz")
        trainer, history, report = train_with_recovery(
            lambda: make_trainer(data, strategy=strategy, plan=plan,
                                 ckpt=ckpt), EPOCHS)
        assert report.restarts == 1
        assert report.failures == [{"rank": 1, "step": 5}]
        assert curve(history) == clean

    def test_crash_before_first_checkpoint_restarts_from_scratch(
            self, data, tmp_path):
        clean = curve(make_trainer(data).fit(EPOCHS))
        plan = FaultPlan().rank_crash(step=1, rank=0)
        ckpt = str(tmp_path / "early.npz")
        trainer, history, report = train_with_recovery(
            lambda: make_trainer(data, plan=plan, ckpt=ckpt,
                                 checkpoint_every=5), EPOCHS)
        assert report.restarts == 1
        assert curve(history) == clean

    def test_multiple_crashes_survived(self, data, tmp_path):
        clean = curve(make_trainer(data).fit(EPOCHS))
        plan = (FaultPlan()
                .rank_crash(step=2, rank=0)
                .rank_crash(step=6, rank=1)
                .rank_crash(step=9, rank=1))
        ckpt = str(tmp_path / "multi.npz")
        trainer, history, report = train_with_recovery(
            lambda: make_trainer(data, plan=plan, ckpt=ckpt), EPOCHS)
        assert report.restarts == 3
        assert curve(history) == clean

    def test_randomized_plan_with_recovery(self, data, tmp_path):
        """A seeded random schedule (crash + straggler) still converges
        to the clean curve — chaos is reproducible, not lenient."""
        steps = make_trainer(data).sampler.steps_per_epoch() * EPOCHS
        plan = FaultPlan.randomized(11, world=WORLD, steps=steps)
        clean = curve(make_trainer(data).fit(EPOCHS))
        ckpt = str(tmp_path / "random.npz")
        trainer, history, report = train_with_recovery(
            lambda: make_trainer(data, plan=plan, ckpt=ckpt), EPOCHS)
        assert report.restarts == 1
        assert curve(history) == clean

    def test_gives_up_after_max_restarts(self, data, tmp_path):
        # One crash per step 0..3: with max_restarts=2 the run must
        # surface the failure instead of looping forever, and the error
        # must list the fault events that killed it.
        plan = FaultPlan()
        for step in range(4):
            plan = plan.rank_crash(step=step, rank=0)
        ckpt = str(tmp_path / "hopeless.npz")
        with pytest.raises(RuntimeError,
                           match="fired fault events") as excinfo:
            train_with_recovery(
                lambda: make_trainer(data, plan=plan, ckpt=ckpt), EPOCHS,
                max_restarts=2)
        assert isinstance(excinfo.value.__cause__, RankFailure)
        assert "rank_crash" in str(excinfo.value)
        assert "max_restarts=2" in str(excinfo.value)


class TestTimingFaults:
    def test_straggler_stretches_sim_time_not_bits(self, data):
        clean_tr = make_trainer(data)
        clean = clean_tr.fit(EPOCHS)
        slow_tr = make_trainer(
            data, plan=FaultPlan().straggler(rank=1, slowdown=5.0))
        slow = slow_tr.fit(EPOCHS)
        assert curve(slow) == curve(clean)
        # Blocking collectives make every rank wait for the straggler.
        assert slow_tr.comm.now > clean_tr.comm.now * 2

    def test_message_delay_taxes_gradient_time(self, data):
        clean_tr = make_trainer(data)
        clean_tr.fit(1)
        lag_tr = make_trainer(
            data, plan=FaultPlan().message_delay(0.01, category="gradient"))
        lag_tr.fit(1)
        assert (lag_tr.comm.stats.time_by_category["gradient"]
                > clean_tr.comm.stats.time_by_category["gradient"])
        assert (lag_tr.comm.stats.bytes_by_category["gradient"]
                == clean_tr.comm.stats.bytes_by_category["gradient"])
        assert curve(lag_tr.history) == curve(clean_tr.history)

    def test_recovery_traffic_is_accounted(self, data, tmp_path):
        plan = FaultPlan().rank_crash(step=5, rank=1)
        ckpt = str(tmp_path / "acct.npz")
        trainer, _, _ = train_with_recovery(
            lambda: make_trainer(data, plan=plan, ckpt=ckpt), EPOCHS)
        # The resumed attempt re-broadcast the restored parameters.
        assert trainer.comm.stats.bytes_by_category.get("recovery", 0) > 0


class TestCheckpointCursor:
    def test_checkpoint_written_at_cadence(self, data, tmp_path):
        ckpt = str(tmp_path / "cadence.npz")
        tr = make_trainer(data, ckpt=ckpt, checkpoint_every=3)
        tr.fit(1)
        assert os.path.exists(ckpt)
        from repro.training.checkpoint import read_checkpoint_meta
        state = read_checkpoint_meta(ckpt)["extra"]["training_state"]
        assert state["global_step"] % 3 == 0
        assert state["world_size"] == WORLD
        assert len(state["epoch_losses"]) == state["step"] * WORLD

    def test_resume_requires_training_cursor(self, data, tmp_path):
        from repro.training.checkpoint import save_checkpoint
        tr = make_trainer(data)
        bare = str(tmp_path / "bare.npz")
        save_checkpoint(bare, tr.model, tr.optimizer)
        with pytest.raises(ValueError, match="resumable"):
            make_trainer(data).resume(bare)

    def test_mid_epoch_resume_continues_not_restarts(self, data, tmp_path):
        """Resume replays only the missing steps: global_step continues
        from the cursor instead of rewinding to the epoch start."""
        ckpt = str(tmp_path / "cursor.npz")
        tr = make_trainer(data, ckpt=ckpt, checkpoint_every=2)
        steps = tr.sampler.steps_per_epoch()
        tr.fit(EPOCHS)
        fresh = make_trainer(data, ckpt=ckpt)
        fresh.resume(ckpt)
        assert fresh.global_step == EPOCHS * steps - (EPOCHS * steps) % 2
        cont = fresh.fit(EPOCHS)
        assert curve(cont) == curve(tr.history)
