"""Chaos tier: a world change under injected faults.

A rank crash *after* a resume at a new world recovers through the
checkpoint loop to a curve bitwise identical to the fault-free run at
that world — changing the world does not weaken the recovery contract.
"""

import pytest

from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import FaultPlan, FaultyTransport, ProcessGroup, SimTransport
from repro.training import DDPStrategy, DDPTrainer, train_with_recovery
from repro.training.checkpoint import read_checkpoint_meta

SEED = 0
EPOCHS = 2
GLOBAL_BATCH = 16


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
            EPOCHS)

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
