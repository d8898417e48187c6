"""Tests for the true-replica DDP verification mode."""

import numpy as np
import pytest

from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.preprocessing import IndexDataset
from repro.runtime import ProcessGroup
from repro.training.replicated import ReplicatedDDPTrainer
from repro.utils.errors import CommunicatorError


@pytest.fixture(scope="module")
def setup():
    ds = load_dataset("pems-bay", nodes=8, entries=200, seed=9)
    idx = IndexDataset.from_dataset(ds, horizon=4)
    supports = dual_random_walk_supports(ds.graph.weights)

    def factory():
        return PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=42)

    return idx, factory


class TestReplicatedDDP:
    def test_replicas_stay_in_sync_through_training(self, setup):
        idx, factory = setup
        trainer = ReplicatedDDPTrainer(
            factory, ProcessGroup.sim(4),
            IndexBatchLoader(idx, "train", 8), seed=0, sync_check=True)
        loss = trainer.train_epoch(0)
        assert np.isfinite(loss)
        trainer.assert_replicas_in_sync()  # explicit re-check

    def test_matches_shared_model_ddp(self, setup):
        """The literal replicated implementation must produce the same
        parameters as the shared-model DDPTrainer fast path."""
        from repro.optim import Adam
        from repro.training import DDPTrainer

        idx, factory = setup
        rep = ReplicatedDDPTrainer(
            factory, ProcessGroup.sim(4),
            IndexBatchLoader(idx, "train", 8), lr=0.01, seed=11,
            sync_check=False)
        rep.train_epoch(0)

        shared_model = factory()
        shared = DDPTrainer(
            shared_model, Adam(shared_model.parameters(), lr=0.01),
            ProcessGroup.sim(4), IndexBatchLoader(idx, "train", 8),
            shuffle="global", seed=11, clip_norm=0.0)
        shared.train_epoch(0)

        ref = rep.replicas[0].state_dict()
        for name, arr in shared_model.state_dict().items():
            np.testing.assert_allclose(arr, ref[name], rtol=1e-5, atol=1e-7,
                                       err_msg=name)

    def test_divergent_factory_rejected(self, setup):
        idx, _ = setup
        ds = load_dataset("pems-bay", nodes=8, entries=200, seed=9)
        supports = dual_random_walk_supports(ds.graph.weights)
        counter = {"n": 0}

        def bad_factory():
            counter["n"] += 1
            return PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=counter["n"])

        with pytest.raises(CommunicatorError):
            ReplicatedDDPTrainer(bad_factory, ProcessGroup.sim(2),
                                 IndexBatchLoader(idx, "train", 8))

    def test_sync_assert_catches_drift(self, setup):
        idx, factory = setup
        trainer = ReplicatedDDPTrainer(
            factory, ProcessGroup.sim(2),
            IndexBatchLoader(idx, "train", 8), sync_check=False)
        trainer.replicas[1].proj.weight.data += 1.0  # inject drift
        with pytest.raises(CommunicatorError):
            trainer.assert_replicas_in_sync()
