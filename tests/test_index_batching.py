"""Unit tests for index-batching — the paper's core contribution."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.hardware.memory import MemorySpace
from repro.preprocessing import (
    IndexDataset,
    num_snapshots,
    standard_preprocess,
)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("pems-bay", nodes=10, entries=200, seed=2)


@pytest.fixture(scope="module")
def index_ds(dataset):
    return IndexDataset.from_dataset(dataset)


class TestConstruction:
    def test_counts(self, dataset, index_ds):
        assert index_ds.num_snapshots == num_snapshots(200, 12)
        assert index_ds.num_nodes == 10
        assert index_ds.num_features == 2  # time-of-day appended

    def test_split_sizes_follow_70_10_20(self, index_ds):
        n = index_ds.num_snapshots
        assert len(index_ds.split_starts("train")) == round(n * 0.7)
        assert (len(index_ds.split_starts("train"))
                + len(index_ds.split_starts("val"))
                + len(index_ds.split_starts("test"))) == n

    def test_splits_disjoint_and_ordered(self, index_ds):
        tr = index_ds.split_starts("train")
        va = index_ds.split_starts("val")
        te = index_ds.split_starts("test")
        assert tr[-1] < va[0] <= va[-1] < te[0]

    def test_unknown_split(self, index_ds):
        with pytest.raises(KeyError):
            index_ds.split_starts("validation")

    def test_resident_bytes_matches_eq2(self, dataset, index_ds):
        from repro.preprocessing import index_nbytes
        expected = index_nbytes(200, 10, 2, 12)
        assert index_ds.resident_nbytes == expected


class TestZeroCopy:
    def test_snapshot_views_share_base(self, index_ds):
        x, y = index_ds.snapshot(3)
        assert x.base is index_ds.data
        assert y.base is index_ds.data

    def test_snapshot_allocates_nothing(self, index_ds):
        x, y = index_ds.snapshot(0)
        assert x.flags.owndata is False and y.flags.owndata is False

    def test_snapshot_window_semantics(self, index_ds):
        h = index_ds.horizon
        x, y = index_ds.snapshot(7)
        np.testing.assert_array_equal(x, index_ds.data[7:7 + h])
        np.testing.assert_array_equal(y, index_ds.data[7 + h:7 + 2 * h])

    def test_out_of_range_snapshot(self, index_ds):
        with pytest.raises(IndexError):
            index_ds.snapshot(index_ds.num_snapshots)
        with pytest.raises(IndexError):
            index_ds.snapshot(-1)


class TestEquivalenceWithStandard:
    """Index-batching must feed the model the exact same snapshots."""

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_bitwise_equal_splits(self, dataset, index_ds, split):
        std = standard_preprocess(dataset)
        xs, ys = std.split(split)
        xi, yi = index_ds.materialize_split(split)
        np.testing.assert_array_equal(xs, xi)
        np.testing.assert_array_equal(ys, yi)

    def test_scaler_statistics_identical(self, dataset, index_ds):
        std = standard_preprocess(dataset)
        np.testing.assert_array_equal(std.scaler.mean_, index_ds.scaler.mean_)
        np.testing.assert_array_equal(std.scaler.std_, index_ds.scaler.std_)

    @pytest.mark.parametrize("horizon", [1, 3, 12, 24])
    def test_equivalence_across_horizons(self, dataset, horizon):
        std = standard_preprocess(dataset, horizon=horizon)
        idx = IndexDataset.from_dataset(dataset, horizon=horizon)
        xs, ys = std.split("train")
        xi, yi = idx.materialize_split("train")
        np.testing.assert_array_equal(xs, xi)
        np.testing.assert_array_equal(ys, yi)


class TestGather:
    def test_gather_shapes(self, index_ds):
        x, y = index_ds.gather(np.array([0, 5, 9]))
        h, n, f = index_ds.horizon, index_ds.num_nodes, index_ds.num_features
        assert x.shape == (3, h, n, f) and y.shape == (3, h, n, f)

    def test_gather_matches_snapshots(self, index_ds):
        starts = np.array([2, 17, 40])
        x, y = index_ds.gather(starts)
        for i, s in enumerate(starts):
            xs, ys = index_ds.snapshot(int(s))
            np.testing.assert_array_equal(x[i], xs)
            np.testing.assert_array_equal(y[i], ys)

    @pytest.mark.parametrize("with_out", [False, True])
    @pytest.mark.parametrize("bad", ["negative", "past-the-end"])
    def test_out_of_range_start_raises_on_both_paths(self, index_ds, with_out,
                                                     bad):
        # Without out= a negative start used to wrap (fancy indexing) and
        # return windows from the end of the data.
        h = index_ds.horizon
        last = len(index_ds.data) - 2 * h            # the last valid start
        starts = np.array([-1 if bad == "negative" else last + 1, 3])
        out = (np.empty((2, 2 * h) + index_ds.data.shape[1:],
                        index_ds.data.dtype) if with_out else None)
        with pytest.raises(IndexError):
            index_ds.gather(starts, out=out)
        index_ds.gather(np.array([0, last]), out=out)  # the edges are fine

    def test_gather_charges_transient_batch(self, dataset):
        space = MemorySpace("gpu")
        idx = IndexDataset.from_dataset(dataset)
        before_peak = space.peak
        x, y = idx.gather(np.arange(4), space=space)
        assert space.in_use == 0          # batch charged then released
        assert space.peak >= before_peak + x.nbytes + y.nbytes


class TestMemoryCharging:
    def test_resident_is_single_copy_plus_indices(self, dataset):
        space = MemorySpace("host")
        idx = IndexDataset.from_dataset(dataset, space=space)
        assert space.in_use == idx.data.nbytes + idx.starts.nbytes

    def test_peak_includes_spike(self, dataset):
        """The transient spike: raw + augmented + standardize scratch."""
        space = MemorySpace("host")
        idx = IndexDataset.from_dataset(dataset, space=space)
        expected_peak = (dataset.signals.nbytes + 2 * idx.data.nbytes
                         + idx.starts.nbytes)
        assert space.peak == expected_peak

    def test_release(self, dataset):
        space = MemorySpace("host")
        idx = IndexDataset.from_dataset(dataset, space=space)
        idx.release(space)
        assert space.in_use == 0

    def test_index_far_smaller_than_standard(self, dataset):
        """The headline claim at small scale: index << standard bytes."""
        s1 = MemorySpace("std")
        s2 = MemorySpace("idx")
        standard_preprocess(dataset, space=s1)
        IndexDataset.from_dataset(dataset, space=s2)
        # Standard pipeline resident (split copies) dwarfs index resident.
        assert s1.in_use > 5 * s2.in_use
        assert s1.peak > 3 * s2.peak


# Runs in a fresh interpreter so tracemalloc sees set-up alone.
_SET_UP_PEAK_PROBE = """
import json, tracemalloc
import numpy as np
import repro.api.builders
from repro.api.registry import BATCHINGS
from repro.datasets import load_dataset
from repro.preprocessing import IndexDataset
from repro.preprocessing.scaler import BLOCK_ELEMS

ds = load_dataset("pems-bay", nodes=128, entries=6000, seed=0)
builds = {"float32": lambda: BATCHINGS.get("index")(ds, 12, 64).train.ds,
          "float64": lambda: IndexDataset.from_dataset(ds, 12)}
out = {"block_nbytes": BLOCK_ELEMS * 8}
for name, build in builds.items():
    tracemalloc.start()
    idx = build()
    out[name] = {"peak": tracemalloc.get_traced_memory()[1],
                 "resident": idx.resident_nbytes,
                 "dtype": str(idx.data.dtype)}
    tracemalloc.stop()
    del idx
print(json.dumps(out))
"""


class TestSetUpPeak:
    def test_set_up_allocates_the_resident_copy_plus_a_few_blocks(self):
        """The memory contract of blockwise, write-once standardization:
        building the index form of 128 x 6,000 allocates its resident bytes
        plus at most four blocks — no augmented float64 array, no full-size
        ``data - mean`` temporary, no ``astype`` copy (together they made
        this ~3.4x resident at the float32 store)."""
        done = subprocess.run(
            [sys.executable, "-c", _SET_UP_PEAK_PROBE], capture_output=True,
            text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert done.returncode == 0, done.stderr
        probe = json.loads(done.stdout)
        for dtype in ("float32", "float64"):
            run = probe[dtype]
            assert run["dtype"] == dtype
            assert run["resident"] <= run["peak"] <= (
                run["resident"] + 4 * probe["block_nbytes"]), (dtype, probe)
