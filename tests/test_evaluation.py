"""Tests for ``Trainer.fit``'s checkpointing and epoch numbering."""

import pytest

from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.training import Trainer
from repro.training.checkpoint import load_checkpoint


class TestFitCheckpointing:
    def test_writes_periodic_and_best(self, tmp_path):
        ds = load_dataset("pems-bay", nodes=6, entries=250, seed=7)
        idx = IndexDataset.from_dataset(ds, horizon=4)
        supports = dual_random_walk_supports(ds.graph.weights)
        model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=2)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01),
                          IndexBatchLoader(idx, "train", 16),
                          IndexBatchLoader(idx, "val", 16),
                          scaler=idx.scaler, seed=2)
        path = str(tmp_path / "run.npz")
        trainer.fit(3, checkpoint_path=path)
        fresh = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=99)
        meta = load_checkpoint(path, fresh)
        assert meta["epoch"] == 2
        best_meta = load_checkpoint(path + ".best", fresh)
        assert "val_mae" in best_meta["extra"]

    @pytest.mark.parametrize("every, saved", [
        (1, [0, 1, 2, 3]), (2, [1, 3]), (3, [2])],
        ids=["every-1", "every-2", "every-3"])
    def test_checkpoint_every_n_epochs(self, tmp_path, monkeypatch, every,
                                       saved):
        """The periodic checkpoint is written after every
        ``checkpoint_every``-th epoch of the call, and holds that epoch."""
        import repro.training.checkpoint as checkpoint
        writes = []
        real_save = checkpoint.save_checkpoint

        def recording_save(path, *args, epoch, **kwargs):
            if not path.endswith(".best"):
                writes.append(epoch)
            return real_save(path, *args, epoch=epoch, **kwargs)

        monkeypatch.setattr(checkpoint, "save_checkpoint", recording_save)
        ds = load_dataset("pems-bay", nodes=6, entries=250, seed=7)
        idx = IndexDataset.from_dataset(ds, horizon=4)
        supports = dual_random_walk_supports(ds.graph.weights)
        model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=4)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01),
                          IndexBatchLoader(idx, "train", 16),
                          IndexBatchLoader(idx, "val", 16),
                          scaler=idx.scaler, seed=4)
        path = str(tmp_path / "run.npz")
        trainer.fit(4, checkpoint_path=path, checkpoint_every=every)
        assert writes == saved
        fresh = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=99)
        assert load_checkpoint(path, fresh)["epoch"] == saved[-1]

    def test_fit_resumes_epoch_numbering(self, tmp_path):
        ds = load_dataset("pems-bay", nodes=6, entries=250, seed=7)
        idx = IndexDataset.from_dataset(ds, horizon=4)
        supports = dual_random_walk_supports(ds.graph.weights)
        model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=3)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01),
                          IndexBatchLoader(idx, "train", 16),
                          IndexBatchLoader(idx, "val", 16),
                          scaler=idx.scaler, seed=3)
        trainer.fit(2)
        trainer.fit(2)
        assert [h.epoch for h in trainer.history] == [0, 1, 2, 3]
