"""Unit tests for metrics, the single-device trainer and DDP training."""

import inspect

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.nn.module import Module
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import ProcessGroup
from repro.training import (
    DDPStrategy,
    DDPTrainer,
    Trainer,
    mae,
    masked_abs_error,
    mse,
)
from repro.utils.errors import CommunicatorError


class TestMetrics:
    def test_mae(self):
        assert mae([1.0, 3.0], [0.0, 1.0]) == pytest.approx(1.5)

    def test_mse(self):
        assert mse([3.0], [0.0]) == pytest.approx(9.0)

    def test_masked_abs_error_skips_nulls(self):
        assert masked_abs_error([1.0, 9.0, 4.0], [0.0, 10.0, 2.0]) \
            == (pytest.approx(3.0), 2)

    def test_masked_abs_error_all_null(self):
        assert masked_abs_error([1.0], [0.0]) == (0.0, 0)


class _Echo(Module):
    """Forecasts the input's first channel: predictions are known."""

    def forward(self, x):
        return Tensor(x.data[..., :1])


class _FixedSource:
    """A ``BatchSource`` over fixed arrays, batched in index order."""

    def __init__(self, x, y, batch_size):
        self.x, self.y, self.batch_size = x, y, batch_size
        self.num_snapshots = len(x)

    def __len__(self):
        return self.num_snapshots // self.batch_size

    def batch_at(self, sel):
        return self.x[sel], self.y[sel]

    def batches(self, order=None):
        order = np.arange(self.num_snapshots) if order is None else order
        for i in range(0, len(order), self.batch_size):
            yield self.batch_at(order[i:i + self.batch_size])


class TestMaskedEvaluation:
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5])
    def test_batches_weighted_by_unmasked_count(self, batch_size):
        """Null targets (0, a missing reading) never count, and batches
        weigh by how many entries they keep, so the result is the masked
        MAE over all snapshots at any batch size — not a mean of batch
        means, which the uneven missing fractions here would skew."""
        rng = np.random.default_rng(5)
        x = rng.uniform(1.0, 2.0, (7, 2, 3, 1)).astype(np.float32)
        y = rng.uniform(3.0, 9.0, (7, 2, 3, 1)).astype(np.float32)
        for i in range(7):
            y[i].reshape(-1)[: i % 5] = 0.0      # 0..4 of 6 entries missing
        keep = y[..., 0] != 0
        expected = np.abs(x[..., 0] - y[..., 0])[keep].sum() / keep.sum()
        source = _FixedSource(x, y, batch_size)
        got = Trainer(_Echo(), None, source).evaluate(source)
        assert got == pytest.approx(float(expected), rel=1e-6)


class TestOptionSurface:
    @pytest.mark.parametrize("method, keywords", [
        (Trainer.fit, ["verbose", "checkpoint_path", "checkpoint_every"]),
        (Trainer.evaluate, ["loader"]),
        (DDPTrainer.fit, ["verbose"]),
        (DDPTrainer.evaluate, ["loader"]),
    ], ids=["Trainer.fit", "Trainer.evaluate", "DDPTrainer.fit",
            "DDPTrainer.evaluate"])
    def test_settable_keywords(self, method, keywords):
        """Every keyword a caller sets, and no more: an option nothing
        passes is a configuration nothing tests."""
        params = list(inspect.signature(method).parameters)
        assert params[0] == "self"
        assert [p for p in params[1:] if p != "epochs"] == keywords


@pytest.fixture(scope="module")
def tiny_setup():
    """Small real dataset + index pipeline + model, shared across tests."""
    ds = load_dataset("pems-bay", nodes=8, entries=220, seed=3)
    idx = IndexDataset.from_dataset(ds, horizon=4)
    supports = dual_random_walk_supports(ds.graph.weights)
    return ds, idx, supports


def _model(supports, seed=0):
    return PGTDCRNN(supports, horizon=4, in_features=2, hidden_dim=8,
                    seed=seed)


class TestTrainer:
    def test_fit_reduces_loss_and_tracks_history(self, tiny_setup):
        ds, idx, supports = tiny_setup
        model = _model(supports)
        opt = Adam(model.parameters(), lr=0.01)
        tr = Trainer(model, opt,
                     IndexBatchLoader(idx, "train", 16),
                     IndexBatchLoader(idx, "val", 16),
                     scaler=idx.scaler, seed=0)
        history = tr.fit(4)
        assert len(history) == 4
        losses = [h.train_loss for h in history]
        assert losses[-1] < losses[0]
        assert all(np.isfinite(h.val_mae) for h in history)
        assert all(h.seconds > 0 for h in history)

    def test_val_mae_in_original_units(self, tiny_setup):
        ds, idx, supports = tiny_setup
        model = _model(supports)
        tr = Trainer(model, Adam(model.parameters(), lr=0.01),
                     IndexBatchLoader(idx, "train", 16),
                     IndexBatchLoader(idx, "val", 16), scaler=idx.scaler)
        v = tr.evaluate()
        # Traffic speeds are tens of mph; an untrained model must be off
        # by miles-per-hour, not standardized units.
        assert 1.0 < v < 100.0

    def test_best_val_mae(self, tiny_setup):
        ds, idx, supports = tiny_setup
        model = _model(supports)
        tr = Trainer(model, Adam(model.parameters(), lr=0.01),
                     IndexBatchLoader(idx, "train", 16),
                     IndexBatchLoader(idx, "val", 16), scaler=idx.scaler)
        tr.fit(2)
        assert tr.best_val_mae() == min(h.val_mae for h in tr.history)

    def test_evaluate_without_loader_raises(self, tiny_setup):
        ds, idx, supports = tiny_setup
        model = _model(supports)
        tr = Trainer(model, Adam(model.parameters(), lr=0.01),
                     IndexBatchLoader(idx, "train", 16))
        with pytest.raises(ValueError):
            tr.evaluate()


class TestDDPTrainer:
    def _trainer(self, tiny_setup, world, strategy=DDPStrategy.DIST_INDEX,
                 shuffle=None, seed=0, comm=None):
        ds, idx, supports = tiny_setup
        model = _model(supports, seed=seed)
        opt = Adam(model.parameters(), lr=0.01)
        comm = comm or ProcessGroup.sim(world)
        return DDPTrainer(
            model, opt, comm,
            IndexBatchLoader(idx, "train", 8),
            IndexBatchLoader(idx, "val", 8),
            strategy=strategy, shuffle=shuffle, scaler=idx.scaler, seed=seed)

    def test_training_reduces_loss(self, tiny_setup):
        tr = self._trainer(tiny_setup, world=4)
        hist = tr.fit(3)
        assert hist[-1].train_loss < hist[0].train_loss

    def test_sim_time_recorded(self, tiny_setup):
        tr = self._trainer(tiny_setup, world=4)
        hist = tr.fit(1)
        assert hist[0].sim_seconds > 0
        assert hist[0].compute_seconds > 0

    def test_dist_index_has_no_data_traffic(self, tiny_setup):
        tr = self._trainer(tiny_setup, world=4,
                           strategy=DDPStrategy.DIST_INDEX)
        tr.fit(1)
        assert "data" not in tr.comm.stats.bytes_by_category
        assert tr.comm.stats.bytes_by_category["gradient"] > 0

    def test_baseline_ddp_pays_data_traffic(self, tiny_setup):
        tr = self._trainer(tiny_setup, world=4,
                           strategy=DDPStrategy.BASELINE_DDP)
        tr.fit(1)
        assert tr.comm.stats.bytes_by_category["data"] > 0

    def test_generalized_moves_less_data_than_baseline(self, tiny_setup):
        """Fig. 9's volume claim: raw-range fetches << windowed fetches."""
        base = self._trainer(tiny_setup, world=4,
                             strategy=DDPStrategy.BASELINE_DDP)
        base.fit(1)
        gen = self._trainer(tiny_setup, world=4,
                            strategy=DDPStrategy.GENERALIZED_INDEX)
        gen.fit(1)
        ratio = (base.comm.stats.bytes_by_category["data"]
                 / gen.comm.stats.bytes_by_category["data"])
        assert ratio > 4  # ~2*horizon with horizon 4

    def test_default_shuffle_per_strategy(self, tiny_setup):
        assert self._trainer(tiny_setup, 2).shuffle == "global"
        assert self._trainer(
            tiny_setup, 2,
            strategy=DDPStrategy.GENERALIZED_INDEX).shuffle == "batch"

    def test_invalid_shuffle(self, tiny_setup):
        with pytest.raises(ValueError):
            self._trainer(tiny_setup, 2, shuffle="sorted")

    def test_evaluate_distributed(self, tiny_setup):
        tr = self._trainer(tiny_setup, world=4)
        v = tr.evaluate()
        assert np.isfinite(v) and v > 0
        assert tr.comm.stats.bytes_by_category.get("metric", 0) > 0

    def test_evaluate_partition_invariant(self, tiny_setup):
        """Val MAE must not depend on how ranks partition the split, even
        when the world is so large that some ranks get no snapshots.

        Tolerance is float32-level: the model computes end-to-end in the
        input dtype now, and BLAS reduction order across different batch
        shapes differs at f32 epsilon.
        """
        values = {w: self._trainer(tiny_setup, world=w).evaluate()
                  for w in (1, 4, 32)}  # val split has ~21 snapshots < 32
        assert values[1] == pytest.approx(values[4], rel=1e-5)
        assert values[1] == pytest.approx(values[32], rel=1e-5)

    def test_evaluate_runs_on_the_ranks(self, tiny_setup):
        """Each rank evaluates its slice inside one ``run_ranks`` call, so
        forked ranks do the work (the process fabric measures it as their
        compute); the MAE is bitwise the same on sim and process ranks."""
        sim = self._trainer(tiny_setup, world=4)
        calls, run = [], sim.comm.run_ranks
        sim.comm.run_ranks = lambda fn, **kw: calls.append(fn) or run(fn, **kw)
        want = sim.evaluate()
        assert len(calls) == 1
        pg = ProcessGroup.processes(4)
        try:
            proc = self._trainer(tiny_setup, world=4, comm=pg)
            got = proc.evaluate()
            assert (pg.transport.compute_time > 0).all()
        finally:
            pg.transport.shutdown()
        assert got == want

    def test_world1_matches_semantics(self, tiny_setup):
        tr = self._trainer(tiny_setup, world=1)
        hist = tr.fit(1)
        assert np.isfinite(hist[0].train_loss)


class TestDDPEquivalence:
    """DDP with R ranks must match single-rank training on the same global
    batches: averaged microbatch gradients == global-batch gradient."""

    def test_4rank_matches_1rank_global_batch(self, tiny_setup):
        ds, idx, supports = tiny_setup

        def run(world, batch):
            model = _model(supports, seed=42)
            opt = Adam(model.parameters(), lr=0.01)
            comm = ProcessGroup.sim(world)
            tr = DDPTrainer(model, opt, comm,
                            IndexBatchLoader(idx, "train", batch),
                            shuffle="global", seed=7, clip_norm=0.0)
            tr.train_epoch(0)
            return model.state_dict()

        # 4 ranks x batch 4 consume the same permutation as 1 rank x 16:
        # GlobalShuffleSampler deals perm[r::4] to rank r, so step s of the
        # 4-rank run covers perm[16s : 16s+16] exactly (as 4 microbatches).
        multi = run(4, 4)
        single = run(1, 16)
        for name in multi:
            np.testing.assert_allclose(multi[name], single[name],
                                       rtol=2e-4, atol=2e-5,
                                       err_msg=f"divergence in {name}")

    def test_fewer_steps_with_more_workers(self, tiny_setup):
        """The Fig. 8 mechanism: scaling workers at fixed per-worker batch
        size cuts optimizer steps per epoch."""
        ds, idx, supports = tiny_setup
        from repro.batching.samplers import GlobalShuffleSampler
        n = len(idx.split_starts("train"))
        s1 = GlobalShuffleSampler(n, 8, 1).steps_per_epoch()
        s4 = GlobalShuffleSampler(n, 8, 4).steps_per_epoch()
        assert s4 <= s1 // 3
