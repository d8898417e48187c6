"""Tests for horizon-wise evaluation, early stopping and fit-checkpointing."""

import numpy as np
import pytest

from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.training import Trainer
from repro.training.checkpoint import load_checkpoint
from repro.training.evaluation import HorizonMetrics, evaluate_by_horizon


@pytest.fixture(scope="module")
def setup():
    ds = load_dataset("pems-bay", nodes=8, entries=300, seed=6)
    idx = IndexDataset.from_dataset(ds, horizon=6)
    supports = dual_random_walk_supports(ds.graph.weights)
    model = PGTDCRNN(supports, 6, 2, hidden_dim=8, seed=0)
    train = IndexBatchLoader(idx, "train", 16)
    val = IndexBatchLoader(idx, "val", 16)
    trainer = Trainer(model, Adam(model.parameters(), lr=0.01), train, val,
                      scaler=idx.scaler, seed=0)
    trainer.fit(4)
    return idx, model, trainer, val


class TestEvaluateByHorizon:
    def test_shapes(self, setup):
        idx, model, _, val = setup
        m = evaluate_by_horizon(model, val, idx.scaler, interval_minutes=5)
        assert m.mae.shape == (6,)
        assert m.rmse.shape == (6,)
        assert m.mape.shape == (6,)

    def test_error_grows_with_lead_time(self, setup):
        """Forecast error should (weakly) degrade across the horizon."""
        idx, model, _, val = setup
        m = evaluate_by_horizon(model, val, idx.scaler)
        assert m.degradation() > 0.9  # last step not mysteriously easier
        assert m.mae[-1] >= 0.8 * m.mae[0]

    def test_rmse_dominates_mae(self, setup):
        idx, model, _, val = setup
        m = evaluate_by_horizon(model, val, idx.scaler)
        assert np.all(m.rmse >= m.mae - 1e-9)

    def test_at_minutes(self, setup):
        idx, model, _, val = setup
        m = evaluate_by_horizon(model, val, idx.scaler, interval_minutes=5)
        r = m.at_minutes(15)  # step 2
        assert r["mae"] == pytest.approx(float(m.mae[2]))
        with pytest.raises(ValueError):
            m.at_minutes(6 * 5 + 5)

    def test_at_minutes_requires_interval(self):
        m = HorizonMetrics(mae=np.ones(3), rmse=np.ones(3), mape=np.ones(3))
        with pytest.raises(ValueError):
            m.at_minutes(15)

    def test_max_batches(self, setup):
        idx, model, _, val = setup
        m = evaluate_by_horizon(model, val, idx.scaler, max_batches=1)
        assert np.all(np.isfinite(m.mae))


class TestEarlyStopping:
    def _trainer(self, lr=0.01):
        ds = load_dataset("pems-bay", nodes=6, entries=250, seed=7)
        idx = IndexDataset.from_dataset(ds, horizon=4)
        supports = dual_random_walk_supports(ds.graph.weights)
        model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=1)
        return Trainer(model, Adam(model.parameters(), lr=lr),
                       IndexBatchLoader(idx, "train", 16),
                       IndexBatchLoader(idx, "val", 16),
                       scaler=idx.scaler, seed=1)

    def test_stops_early_with_zero_patience_dead_lr(self):
        # No learning -> epoch 0 is the only best; training ends after
        # exactly ``patience`` more epochs.
        for patience in (1, 3):
            tr = self._trainer(lr=0.0)
            tr.fit(20, patience=patience)
            assert len(tr.history) == 1 + patience

    def test_requires_val_loader(self):
        tr = self._trainer()
        tr.val_loader = None
        with pytest.raises(ValueError):
            tr.fit(2, patience=1)


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
