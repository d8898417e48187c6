"""End-to-end integration tests across subsystem boundaries.

Each test exercises a complete workflow exactly as a user would drive it,
checking the cross-module contracts that unit tests can't see.
"""

import numpy as np
import pytest

from repro.batching import IndexBatchLoader, StandardBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.hardware.memory import MemorySpace
from repro.models import PGTDCRNN, TGCN
from repro.optim import Adam, MultiStepLR
from repro.preprocessing import IndexDataset, standard_preprocess
from repro.runtime import ProcessGroup
from repro.training import (
    DDPStrategy,
    DDPTrainer,
    Trainer,
    evaluate_by_horizon,
    load_checkpoint,
    save_checkpoint,
)


class TestFullWorkflowEquivalence:
    """The paper's central promise: swapping standard batching for
    index-batching changes nothing about training outcomes."""

    def test_training_runs_are_identical(self):
        ds = load_dataset("pems-bay", nodes=8, entries=260, seed=10)
        supports = dual_random_walk_supports(ds.graph.weights)

        def run(mode):
            if mode == "base":
                pre = standard_preprocess(ds, horizon=4)
                train = StandardBatchLoader(pre, "train", 16)
                val = StandardBatchLoader(pre, "val", 16)
                scaler = pre.scaler
            else:
                idx = IndexDataset.from_dataset(ds, horizon=4)
                train = IndexBatchLoader(idx, "train", 16)
                val = IndexBatchLoader(idx, "val", 16)
                scaler = idx.scaler
            model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=0)
            trainer = Trainer(model, Adam(model.parameters(), lr=0.01),
                              train, val, scaler=scaler, seed=0)
            trainer.fit(3)
            return model.state_dict(), [h.val_mae for h in trainer.history]

        base_state, base_curve = run("base")
        index_state, index_curve = run("index")
        np.testing.assert_array_equal(base_curve, index_curve)
        for name in base_state:
            np.testing.assert_array_equal(base_state[name],
                                          index_state[name])


class TestTrainCheckpointEvaluate:
    def test_full_lifecycle(self, tmp_path):
        """Train -> checkpoint -> reload into a fresh model -> evaluate
        per horizon -> the reloaded model matches the live one."""
        ds = load_dataset("metr-la", nodes=10, entries=300, seed=11)
        idx = IndexDataset.from_dataset(ds, horizon=6)
        supports = dual_random_walk_supports(ds.graph.weights)
        model = PGTDCRNN(supports, 6, 2, hidden_dim=8, seed=4)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01),
                          IndexBatchLoader(idx, "train", 16),
                          IndexBatchLoader(idx, "val", 16),
                          scaler=idx.scaler, seed=4)
        trainer.fit(3)
        path = str(tmp_path / "life.npz")
        save_checkpoint(path, model, trainer.optimizer, epoch=3)

        clone = PGTDCRNN(supports, 6, 2, hidden_dim=8, seed=77)
        load_checkpoint(path, clone)
        test_loader = IndexBatchLoader(idx, "test", 16)
        live = evaluate_by_horizon(model, test_loader, idx.scaler,
                                   interval_minutes=5)
        reloaded = evaluate_by_horizon(clone, test_loader, idx.scaler,
                                       interval_minutes=5)
        np.testing.assert_array_equal(live.mae, reloaded.mae)
        assert live.at_minutes(15)["mae"] > 0


class TestDistributedWorkflowWithMemoryAccounting:
    def test_ddp_with_charged_memory(self):
        """Distributed-index-batching with per-worker memory spaces: every
        worker's resident footprint is the full single copy (the paper's
        trade-off for communication-free shuffling)."""
        ds = load_dataset("pems-bay", nodes=8, entries=260, seed=12)
        world = 4
        spaces = [MemorySpace(f"worker{r}") for r in range(world)]
        replicas = [IndexDataset.from_dataset(ds, horizon=4, space=spaces[r])
                    for r in range(world)]
        for r in range(world):
            assert spaces[r].in_use == replicas[r].resident_nbytes
        total = sum(s.in_use for s in spaces)
        assert total == world * replicas[0].resident_nbytes

        supports = dual_random_walk_supports(ds.graph.weights)
        model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=5)
        trainer = DDPTrainer(
            model, Adam(model.parameters(), lr=0.01), ProcessGroup.sim(world),
            IndexBatchLoader(replicas[0], "train", 8),
            IndexBatchLoader(replicas[0], "val", 8),
            strategy=DDPStrategy.DIST_INDEX, scaler=replicas[0].scaler,
            seed=5)
        hist = trainer.fit(2)
        assert hist[-1].train_loss < hist[0].train_loss * 1.5


class TestSchedulerIntegration:
    def test_multistep_lr_through_fit(self):
        ds = load_dataset("pems-bay", nodes=6, entries=220, seed=13)
        idx = IndexDataset.from_dataset(ds, horizon=4)
        g = dual_random_walk_supports(ds.graph.weights)
        model = TGCN(ds.graph.weights, 4, 2, hidden_dim=8)
        opt = Adam(model.parameters(), lr=0.1)
        trainer = Trainer(model, opt,
                          IndexBatchLoader(idx, "train", 16),
                          IndexBatchLoader(idx, "val", 16),
                          scaler=idx.scaler, seed=6)
        sched = MultiStepLR(opt, milestones=[2], gamma=0.1)
        trainer.fit(4, scheduler=sched)
        lrs = [h.lr for h in trainer.history]
        assert lrs[0] == pytest.approx(0.1)
        assert lrs[-1] == pytest.approx(0.01)


class TestCrossModelLoaderCompatibility:
    @pytest.mark.parametrize("loader_kind", ["standard", "index"])
    def test_every_model_consumes_both_loaders(self, loader_kind):
        ds = load_dataset("pems-bay", nodes=8, entries=150, seed=14)
        if loader_kind == "standard":
            pre = standard_preprocess(ds, horizon=4)
            loader = StandardBatchLoader(pre, "train", 8)
        else:
            idx = IndexDataset.from_dataset(ds, horizon=4)
            loader = IndexBatchLoader(idx, "train", 8)
        from repro.models import A3TGCN, STLLM
        supports = dual_random_walk_supports(ds.graph.weights)
        models = [
            PGTDCRNN(supports, 4, 2, hidden_dim=8),
            A3TGCN(ds.graph.weights, 4, 2, hidden_dim=8),
            STLLM(8, 4, 2, dim=16, num_heads=2, num_blocks=1),
        ]
        x, y = loader.batch_at(np.arange(8))
        from repro.autograd.tensor import Tensor
        for model in models:
            out = model(Tensor(x))
            assert out.shape == (8, 4, 8, 1)
