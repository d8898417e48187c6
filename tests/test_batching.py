"""Unit tests for samplers and batch loaders."""

import numpy as np
import pytest

from repro.batching import (
    BatchShuffleSampler,
    GlobalShuffleSampler,
    IndexBatchLoader,
    LocalShuffleSampler,
    StandardBatchLoader,
    partition_contiguous,
)
from repro.datasets import load_dataset
from repro.preprocessing import IndexDataset, standard_preprocess


class TestPartition:
    def test_covers_everything_once(self):
        parts = partition_contiguous(103, 4)
        all_idx = np.concatenate(parts)
        np.testing.assert_array_equal(np.sort(all_idx), np.arange(103))

    def test_near_equal_sizes(self):
        parts = partition_contiguous(103, 4)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_single_worker(self):
        parts = partition_contiguous(10, 1)
        np.testing.assert_array_equal(parts[0], np.arange(10))

    def test_invalid_world(self):
        with pytest.raises(ValueError):
            partition_contiguous(10, 0)


def _flatten(plan):
    """All indices a rank-plan touches."""
    return np.concatenate([np.concatenate(b) for b in plan if b])


class TestSamplers:
    N, BS, W = 100, 8, 4

    def test_global_shuffle_covers_disjointly(self):
        s = GlobalShuffleSampler(self.N, self.BS, self.W, seed=0)
        plan = s.epoch_plan(0)
        idx = _flatten(plan)
        assert len(idx) == len(set(idx.tolist()))  # disjoint across ranks

    def test_global_shuffle_changes_per_epoch(self):
        s = GlobalShuffleSampler(self.N, self.BS, self.W, seed=0)
        a = _flatten(s.epoch_plan(0))
        b = _flatten(s.epoch_plan(1))
        assert not np.array_equal(a, b)

    def test_global_shuffle_deterministic(self):
        a = GlobalShuffleSampler(self.N, self.BS, self.W, seed=5)
        b = GlobalShuffleSampler(self.N, self.BS, self.W, seed=5)
        np.testing.assert_array_equal(_flatten(a.epoch_plan(3)),
                                      _flatten(b.epoch_plan(3)))

    def test_global_shuffle_mixes_across_ranks(self):
        """Global shuffling re-deals data across workers between epochs."""
        s = GlobalShuffleSampler(self.N, self.BS, self.W, seed=0)
        rank0_e0 = set(_flatten([s.epoch_plan(0)[0]]).tolist())
        rank0_e1 = set(_flatten([s.epoch_plan(1)[0]]).tolist())
        assert rank0_e0 != rank0_e1

    def test_local_shuffle_keeps_partitions_fixed(self):
        s = LocalShuffleSampler(self.N, self.BS, self.W, seed=0,
                                drop_last=False)
        for rank in range(self.W):
            e0 = set(_flatten([s.epoch_plan(0)[rank]]).tolist())
            e5 = set(_flatten([s.epoch_plan(5)[rank]]).tolist())
            assert e0 == e5  # same samples, different order

    def test_local_shuffle_reorders_within_partition(self):
        s = LocalShuffleSampler(self.N, self.BS, self.W, seed=0)
        a = _flatten([s.epoch_plan(0)[0]])
        b = _flatten([s.epoch_plan(1)[0]])
        assert not np.array_equal(a, b)

    def test_batch_shuffle_keeps_batch_membership(self):
        s = BatchShuffleSampler(self.N, self.BS, self.W, seed=0)
        def batch_sets(epoch):
            return {tuple(b.tolist()) for b in s.epoch_plan(epoch)[1]}
        assert batch_sets(0) == batch_sets(7)  # same batches...

    def test_batch_shuffle_reorders_batches(self):
        s = BatchShuffleSampler(self.N, self.BS, self.W, seed=0)
        order0 = [tuple(b.tolist()) for b in s.epoch_plan(0)[0]]
        order1 = [tuple(b.tolist()) for b in s.epoch_plan(1)[0]]
        assert set(order0) == set(order1)
        assert order0 != order1  # ...in a different order

    def test_batch_shuffle_batches_contiguous(self):
        """Contiguity is what gives generalized-index its locality."""
        s = BatchShuffleSampler(self.N, self.BS, self.W, seed=0)
        for rank_batches in s.epoch_plan(0):
            for b in rank_batches:
                np.testing.assert_array_equal(np.diff(b), 1)

    def test_drop_last(self):
        s = GlobalShuffleSampler(10, 4, 1, seed=0, drop_last=True)
        assert sum(len(b) for b in s.epoch_plan(0)[0]) == 8
        s2 = GlobalShuffleSampler(10, 4, 1, seed=0, drop_last=False)
        batches = s2.epoch_plan(0)[0]
        assert [len(b) for b in batches] == [4, 4, 2]
        assert sorted(np.concatenate(batches).tolist()) == list(range(10))

    @pytest.mark.parametrize("cls", [LocalShuffleSampler,
                                     BatchShuffleSampler],
                             ids=["local", "batch"])
    def test_partitioned_plans_deterministic(self, cls):
        """Same (seed, epoch), same plan, per rank and in order; another
        seed reorders it."""
        def plan(seed):
            return [[b.tolist() for b in rank] for rank in
                    cls(self.N, self.BS, self.W, seed=seed).epoch_plan(3)]

        assert plan(5) == plan(5)
        assert plan(5) != plan(6)

    @pytest.mark.parametrize("cls", [LocalShuffleSampler,
                                     BatchShuffleSampler],
                             ids=["local", "batch"])
    def test_partitioned_remainder_kept_without_drop_last(self, cls):
        """Without ``drop_last`` each rank's partition is dealt whole,
        its short remainder batch included."""
        plan = cls(22, 4, 2, seed=0, drop_last=False).epoch_plan(0)
        for rank, part in enumerate(partition_contiguous(22, 2)):
            assert sorted(len(b) for b in plan[rank]) == [3, 4, 4]
            assert sorted(np.concatenate(plan[rank]).tolist()) \
                == part.tolist()

    @pytest.mark.parametrize("cls", [GlobalShuffleSampler,
                                     LocalShuffleSampler,
                                     BatchShuffleSampler],
                             ids=["global", "local", "batch"])
    def test_steps_per_epoch_is_the_shortest_rank(self, cls):
        """Ranks step together, so an epoch is as long as the rank with
        the fewest full batches (10 snapshots over 3 ranks: 3, 3, 4)."""
        s = cls(10, 2, 3, seed=0)
        assert sorted(len(p) for p in s.epoch_plan(0)) == [1, 1, 2]
        assert s.steps_per_epoch() == 1

    def test_steps_per_epoch(self):
        s = GlobalShuffleSampler(100, 8, 4, seed=0)
        assert s.steps_per_epoch() == 3  # 25 per rank // 8

    def test_validation(self):
        with pytest.raises(ValueError):
            GlobalShuffleSampler(0, 4)
        s = GlobalShuffleSampler(10, 0, 1)
        with pytest.raises(ValueError):
            s.epoch_plan(0)


class TestLoaders:
    @pytest.fixture(scope="class")
    def data(self):
        ds = load_dataset("pems-bay", nodes=6, entries=150, seed=1)
        return standard_preprocess(ds), IndexDataset.from_dataset(ds)

    def test_loaders_agree(self, data):
        std, idx = data
        sl = StandardBatchLoader(std, "train", 8)
        il = IndexBatchLoader(idx, "train", 8)
        assert sl.num_snapshots == il.num_snapshots
        for (xs, ys), (xi, yi) in zip(sl.batches(), il.batches()):
            np.testing.assert_array_equal(xs, xi)
            np.testing.assert_array_equal(ys, yi)

    def test_batch_at_matches_order(self, data):
        std, idx = data
        sl = StandardBatchLoader(std, "val", 4)
        il = IndexBatchLoader(idx, "val", 4)
        sel = np.array([3, 0, 7, 2])
        xs, ys = sl.batch_at(sel)
        xi, yi = il.batch_at(sel)
        np.testing.assert_array_equal(xs, xi)
        np.testing.assert_array_equal(ys, yi)

    def test_dtype_conversion(self, data):
        _, idx = data
        il = IndexBatchLoader(idx, "train", 4, dtype=np.float32)
        x, y = next(iter(il.batches()))
        assert x.dtype == np.float32

    def test_len(self, data):
        std, _ = data
        sl = StandardBatchLoader(std, "train", 8)
        assert len(sl) == sl.num_snapshots // 8

    def test_custom_order(self, data):
        _, idx = data
        il = IndexBatchLoader(idx, "train", 4)
        order = np.arange(il.num_snapshots)[::-1]
        x_rev, _ = next(iter(il.batches(order=order)))
        x_fwd, _ = il.batch_at(order[:4])
        np.testing.assert_array_equal(x_rev, x_fwd)

    def test_empty_split_rejected(self):
        ds = load_dataset("pems-bay", nodes=5, entries=60, seed=0)
        idx = IndexDataset.from_dataset(ds)
        # 60 entries, horizon 12 -> 37 snapshots; val split has 4.
        from repro.utils.errors import ShapeError
        import repro.preprocessing.index_batching as ib
        empty = IndexDataset(data=idx.data, starts=idx.starts, horizon=12,
                             scaler=idx.scaler, train_end=0, val_end=0)
        with pytest.raises(ShapeError):
            IndexBatchLoader(empty, "train", 2)
