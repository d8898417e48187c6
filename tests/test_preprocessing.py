"""Unit tests for windows, scaler and the standard pipeline."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import load_dataset
from repro.hardware.memory import MemorySpace
from repro.preprocessing import (
    IndexDataset,
    StandardScaler,
    num_snapshots,
    split_bounds,
    standard_preprocess,
    window_starts,
)
from repro.preprocessing.scaler import block_rows
from repro.utils.errors import OutOfMemoryError


class TestWindows:
    def test_num_snapshots_matches_paper_formula(self):
        # entries - (2*horizon - 1)
        assert num_snapshots(100, 12) == 100 - 23
        assert num_snapshots(522, 4) == 522 - 7

    def test_minimal_entries(self):
        assert num_snapshots(2, 1) == 1
        with pytest.raises(ValueError):
            num_snapshots(23, 12)

    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            num_snapshots(100, 0)

    def test_window_starts_contiguous(self):
        s = window_starts(50, 5)
        np.testing.assert_array_equal(s, np.arange(41))

    def test_split_bounds_default(self):
        train_end, val_end = split_bounds(100)
        assert train_end == 70 and val_end == 80

    def test_split_bounds_rounding(self):
        train_end, val_end = split_bounds(7)
        assert 0 <= train_end <= val_end <= 7

    def test_split_bounds_bad_ratios(self):
        with pytest.raises(ValueError):
            split_bounds(100, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            split_bounds(100, (-0.1, 0.6, 0.5))


class TestScaler:
    def test_fit_transform_standardizes(self):
        rng = np.random.default_rng(0)
        data = rng.normal(50, 7, size=(1000, 4, 2))
        s = StandardScaler().fit(data)
        out = s.transform(data)
        np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=(0, 1)), 1.0, atol=1e-9)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        data = rng.normal(10, 3, size=(100, 5, 3))
        s = StandardScaler().fit(data)
        np.testing.assert_allclose(s.inverse_transform(s.transform(data)),
                                   data, rtol=1e-10)

    def test_inplace_transform_matches(self):
        rng = np.random.default_rng(2)
        data = rng.normal(0, 2, size=(50, 3, 2))
        s = StandardScaler().fit(data)
        expected = s.transform(data)
        buf = data.copy()
        s.transform(buf, out=buf)
        np.testing.assert_array_equal(buf, expected)

    def test_constant_channel_safe(self):
        data = np.ones((10, 2, 2))
        data[..., 1] = 5.0
        s = StandardScaler().fit(data)
        out = s.transform(data)
        assert np.all(np.isfinite(out))

    def test_channel_inverse(self):
        data = np.random.default_rng(3).normal(60, 10, size=(100, 4, 2))
        s = StandardScaler().fit(data)
        z = s.transform(data)[..., 0]
        np.testing.assert_allclose(s.inverse_transform_channel(z, 0),
                                   data[..., 0], rtol=1e-10)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((3, 2)))

    def test_1d_rejected(self):
        from repro.utils.errors import ShapeError
        with pytest.raises(ShapeError):
            StandardScaler().fit(np.ones(5))


def _numpy_statistics(a):
    """What ``fit`` replaced: NumPy's full-array reductions."""
    axes = tuple(range(a.ndim - 1))
    std = a.std(axis=axes, dtype=np.float64)
    return a.mean(axis=axes, dtype=np.float64), np.where(std > 0, std, 1.0)


def _matrix(features, rows, layout, seed):
    """A ``[rows, features]`` float64 matrix (or its 3-D folding) whose
    column sums depend on the order of addition."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.normal(40.0, 15.0, shape) * 10.0 ** rng.integers(-3, 4, shape)

    if layout == "every-third-row":
        return draw(3 * rows, features)[::3]
    if layout == "every-other-column":
        return draw(rows, 2 * features)[:, ::2]
    if layout == "3d":
        return draw(-(-rows // 7), 7, features)
    return draw(rows, features)


ORDER_CONTRACT = (
    "StandardScaler.fit no longer equals NumPy {version}'s full-array "
    "mean/std bit for bit: the block accumulation order of "
    "preprocessing/scaler.py::_ordered_sum and NumPy's own reduction order "
    "have diverged (a NumPy release changed how add.reduce walks an array, "
    "or _ordered_sum was edited).  The statistics are off by ulps, not "
    "wrong, but every stored value follows them, so fixed-seed literals "
    "(PINNED_2EP, the [adam] curve, PRE_REFACTOR, ...) may shift: make "
    "_ordered_sum follow the new order before re-pinning any curve.")


class TestBlockwiseFitOrder:
    """``fit`` reduces block by block in NumPy's own order, so blocking
    changes no bit of ``mean_`` / ``std_``."""

    @settings(max_examples=60, deadline=None)
    @given(features=st.sampled_from([1, 2, 3]),
           blocks=st.sampled_from([1, 2, 5]),
           offset=st.sampled_from([-13, -8, -1, 0, 1, 5, 11]),
           layout=st.sampled_from(["c", "every-third-row",
                                   "every-other-column", "3d"]),
           seed=st.integers(0, 2**32 - 1))
    def test_fit_equals_numpy_bitwise(self, features, blocks, offset, layout,
                                      seed):
        a = _matrix(features, blocks * block_rows(features) + offset, layout,
                    seed)
        mean, std = _numpy_statistics(a)
        s = StandardScaler().fit(a)
        message = ORDER_CONTRACT.format(version=np.__version__)
        assert s.mean_.tobytes() == mean.tobytes(), message
        assert s.std_.tobytes() == std.tobytes(), message

    @pytest.mark.parametrize("features", [1, 2])
    def test_adding_independent_block_sums_would_differ(self, features):
        # The obvious streaming fit (reduce each block on its own, add the
        # partial sums) is not what the property above accepts.
        rows = 5 * block_rows(features) + 11
        a = _matrix(features, rows, "c", seed=0)
        partial = sum(np.add.reduce(a[lo: lo + block_rows(features)], axis=0)
                      for lo in range(0, rows, block_rows(features)))
        assert (partial / rows).tobytes() != _numpy_statistics(a)[0].tobytes()

    def test_float32_input_is_read_as_its_float64_cast(self):
        a = _matrix(1, 5 * block_rows(1) + 11, "c", seed=1).astype(np.float32)
        mean, std = _numpy_statistics(a.astype(np.float64))
        s = StandardScaler().fit(a)
        assert s.mean_.tobytes() == mean.tobytes()
        assert s.std_.tobytes() == std.tobytes()

    @pytest.mark.parametrize("features", [1, 3])
    def test_transposed_input_is_summed_in_logical_row_order(self, features):
        # NumPy reduces Fortran-ordered input in memory order, fit in row
        # order: equal to a few ulps, and to the C-ordered copy exactly.
        a = _matrix(features, 2 * block_rows(features) + 5, "c", seed=2)
        f = np.asfortranarray(a)
        s = StandardScaler().fit(f)
        mean, std = _numpy_statistics(f)
        np.testing.assert_allclose(s.mean_, mean, rtol=1e-12)
        np.testing.assert_allclose(s.std_, std, rtol=1e-12)
        assert s.mean_.tobytes() == _numpy_statistics(a)[0].tobytes()


class TestWriteOnceStandardization:
    """``IndexDataset.from_dataset`` never builds the augmented float64
    array, yet stores the bits the full-array formulation would."""

    @staticmethod
    def _reference(ds, store_dtype):
        traffic = ds.spec.domain == "traffic"
        aug = (ds.with_time_feature() if traffic
               else ds.signals).astype(np.float64)
        h = ds.spec.horizon
        train_end, _ = split_bounds(num_snapshots(len(aug), h),
                                    (0.7, 0.1, 0.2))
        mean, std = _numpy_statistics(aug[: train_end - 1 + h])
        return ((aug - mean) / std).astype(store_dtype), mean, std

    @pytest.mark.parametrize("store_dtype", [None, np.float32, "float16"])
    @pytest.mark.parametrize("signals", ["contiguous", "strided"])
    @pytest.mark.parametrize("name, nodes, entries", [
        ("pems-bay", 7, 130),               # traffic, below one block
        ("pems-bay", 48, 1500),             # traffic, several blocks
        ("chickenpox-hungary", 8, 100),     # single feature, below one block
        ("windmill-large", 30, 3000),       # single feature, several blocks
    ])
    def test_stored_bits_equal_the_full_array_formulation(
            self, name, nodes, entries, signals, store_dtype):
        ds = load_dataset(name, nodes=nodes, entries=entries, seed=4)
        if signals == "strided":
            ds = dataclasses.replace(
                ds, signals=np.repeat(ds.signals, 2, axis=1)[:, ::2])
        assert ds.signals.flags.c_contiguous == (signals == "contiguous")
        expected, mean, std = self._reference(
            ds, np.float64 if store_dtype is None else store_dtype)
        idx = IndexDataset.from_dataset(ds, store_dtype=store_dtype)
        assert idx.data.dtype == expected.dtype
        assert idx.data.flags.c_contiguous
        assert idx.data.tobytes() == expected.tobytes()
        assert idx.scaler.mean_.tobytes() == mean.tobytes()
        assert idx.scaler.std_.tobytes() == std.tobytes()


class TestStandardPreprocess:
    def _dataset(self, **kw):
        return load_dataset("pems-bay", nodes=8, entries=150, seed=0, **kw)

    def test_output_shapes(self):
        pre = standard_preprocess(self._dataset())
        n = num_snapshots(150, 12)
        train_end, val_end = split_bounds(n)
        assert pre.x_train.shape == (train_end, 12, 8, 2)
        assert pre.y_val.shape == (val_end - train_end, 12, 8, 2)
        assert pre.x_test.shape == (n - val_end, 12, 8, 2)

    def test_y_is_shifted_x(self):
        ds = self._dataset()
        pre = standard_preprocess(ds)
        # y of snapshot s equals x of snapshot s + horizon.
        np.testing.assert_array_equal(pre.y_train[0], pre.x_train[12])

    def test_time_feature_appended_for_traffic(self):
        pre = standard_preprocess(self._dataset())
        assert pre.x_train.shape[-1] == 2

    def test_no_time_feature_for_epidemic(self):
        ds = load_dataset("chickenpox-hungary", nodes=8, entries=100)
        pre = standard_preprocess(ds)
        assert pre.x_train.shape[-1] == 1

    def test_stat_modes_differ_slightly(self):
        ds = self._dataset()
        raw = standard_preprocess(ds, stat_mode="raw")
        stacked = standard_preprocess(ds, stat_mode="stacked")
        # Different statistics conventions, but close.
        assert not np.array_equal(raw.x_train, stacked.x_train)
        np.testing.assert_allclose(raw.x_train, stacked.x_train, atol=0.2)

    def test_invalid_stat_mode(self):
        with pytest.raises(ValueError):
            standard_preprocess(self._dataset(), stat_mode="bogus")

    def test_split_accessor(self):
        pre = standard_preprocess(self._dataset())
        x, y = pre.split("val")
        assert x is pre.x_val and y is pre.y_val
        with pytest.raises(KeyError):
            pre.split("bogus")

    def test_memory_charging_and_release(self):
        space = MemorySpace("test")
        ds = self._dataset()
        pre = standard_preprocess(ds, space=space)
        # Residual: only the split copies remain charged.
        assert space.in_use == pre.total_nbytes
        assert space.peak > space.in_use
        pre.release(space)
        assert space.in_use == 0

    def test_oom_when_capacity_too_small(self):
        ds = self._dataset()
        # Capacity fits the raw data but not the windowed stacks.
        space = MemorySpace("tiny", capacity=3 * ds.signals.nbytes)
        with pytest.raises(OutOfMemoryError) as exc:
            standard_preprocess(ds, space=space)
        assert exc.value.capacity == 3 * ds.signals.nbytes

    def test_custom_horizon(self):
        pre = standard_preprocess(self._dataset(), horizon=6)
        assert pre.x_train.shape[1] == 6
        assert pre.horizon == 6

    def test_dtype_float32(self):
        pre = standard_preprocess(self._dataset(), dtype=np.float32)
        assert pre.x_train.dtype == np.float32
