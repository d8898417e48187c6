"""Tests for ``repro.kernels``: the single numpy backend behind the three
functions the end-to-end benchmark calls, the row order of scipy's CSR
kernel, mixed-precision storage, and the PreparedCSR cache bounds.
"""

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.autograd.sparse_kernels import (
    _PREPARED,
    _PREPARED_DTYPES_MAX,
    _PREPARED_MAX,
    clear_prepared_cache,
    prepared_csr,
)
from repro.graph import dual_random_walk_supports, random_sensor_network
from repro.kernels.numpy_backend import _product


# ---------------------------------------------------------------------------
# The one backend, reached by the names benchmarks/e2e calls
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_numpy_always_first(self):
        assert kernels.available_backends() == ("numpy",)

    def test_set_backend_returns_the_active_numpy_backend(self):
        backend = kernels.set_backend("numpy")
        assert backend.name == "numpy"
        assert backend is kernels.active_backend()

    def test_unknown_backend_is_loud(self):
        with pytest.raises(KeyError, match=r"'cuda'.*\['numpy'\]"):
            kernels.set_backend("cuda")


# ---------------------------------------------------------------------------
# Precision resolution
# ---------------------------------------------------------------------------
class TestResolveStoreDtype:
    def test_none_passthrough(self):
        assert kernels.resolve_store_dtype(None) is None

    def test_float16(self):
        assert kernels.resolve_store_dtype("float16") == np.float16
        assert kernels.resolve_store_dtype(np.float16) == np.float16

    def test_rejects_non_float(self):
        with pytest.raises(ValueError, match="float"):
            kernels.resolve_store_dtype("int32")

    def test_bfloat16_gated_on_ml_dtypes(self):
        try:
            import ml_dtypes
        except ImportError:
            with pytest.raises(ImportError, match="float16"):
                kernels.resolve_store_dtype("bfloat16")
        else:
            dt = kernels.resolve_store_dtype("bf16")
            assert dt == np.dtype(ml_dtypes.bfloat16)


# ---------------------------------------------------------------------------
# PreparedCSR cache bounds (satellite: dtype-churn eviction)
# ---------------------------------------------------------------------------
def _random_csr(n, seed):
    g = random_sensor_network(n, seed=seed)
    return dual_random_walk_supports(g.weights)[0]


class TestPreparedCache:
    def setup_method(self):
        clear_prepared_cache()

    def teardown_method(self):
        clear_prepared_cache()

    def test_hit_returns_same_object(self):
        m = _random_csr(16, 0)
        assert prepared_csr(m, np.float32) is prepared_csr(m, np.float32)

    def test_per_dtype_entries(self):
        m = _random_csr(16, 0)
        p32 = prepared_csr(m, np.float32)
        p64 = prepared_csr(m, np.float64)
        assert p32 is not p64
        assert p32 is prepared_csr(m, np.float32)

    def test_dtype_churn_is_bounded(self):
        m = _random_csr(16, 0)
        first = prepared_csr(m, np.float32)
        for dt in (np.float64, np.longdouble):
            prepared_csr(m, dt)
        by_dtype = _PREPARED[id(m)][1]
        assert len(by_dtype) <= _PREPARED_DTYPES_MAX
        # The oldest dtype was evicted; re-requesting it rebuilds.
        assert prepared_csr(m, np.float32) is not first

    def test_source_matrix_is_left_untouched(self):
        # dual_random_walk_supports leaves row indices unsorted, and
        # canonicalising in the support's own dtype must not sort the
        # caller's (the model's) arrays.
        m = _random_csr(16, 0)
        assert not m.has_sorted_indices
        before = [a.copy() for a in (m.indptr, m.indices, m.data)]
        p = prepared_csr(m, m.dtype)
        assert p.csr is not m and p.csr.has_sorted_indices
        for a, b in zip(before, (m.indptr, m.indices, m.data)):
            assert a.tobytes() == b.tobytes()

    def test_matrix_fifo_eviction(self):
        matrices = [_random_csr(8, seed) for seed in range(_PREPARED_MAX + 2)]
        for m in matrices:
            prepared_csr(m, np.float32)
        assert len(_PREPARED) <= _PREPARED_MAX
        assert id(matrices[0]) not in _PREPARED
        assert id(matrices[-1]) in _PREPARED


# ---------------------------------------------------------------------------
# scipy's CSR kernel sums each row in stored order (the bits rest on it)
# ---------------------------------------------------------------------------
ROW_ORDER_CONTRACT = (
    "scipy {version}'s csr_matvecs no longer equals a left-to-right sum of "
    "each CSR row in stored order with every product rounded before it is "
    "added (a scipy release reordered or fused the row loop).  "
    "DiffusionConv's stacked supports keep each row's entries in the "
    "per-support order on that assumption, and every fixed-seed literal "
    "(PINNED_2EP, the [adam] curve, TestDCGRUStepParity, ...) was pinned "
    "through it: check those before re-pinning anything.")


def _random_block_csr(seed: int, rows: int, cols: int, vecs: int,
                      shuffled: bool):
    """Float32 CSR (sorted or shuffled row indices) and a dense block, both
    spanning ~2^±30 so any change of summation order shows in the bits."""
    rng = np.random.default_rng(seed)

    def wide(*shape):
        mag = 2.0 ** rng.uniform(-30, 30, shape)
        return (rng.choice([-1.0, 1.0], shape) * mag).astype(np.float32)

    counts = rng.integers(0, cols + 1, rows)
    indices = np.concatenate(
        [np.zeros(0, np.int32)] +
        [rng.choice(cols, c, replace=False) if shuffled
         else np.sort(rng.choice(cols, c, replace=False)) for c in counts]
    ).astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    a = sp.csr_matrix((wide(len(indices)), indices, indptr),
                      shape=(rows, cols))
    return a, wide(cols, vecs)


def _stored_order_product(a, x: np.ndarray, reverse: bool = False):
    """``a @ x`` as a NumPy loop over each row's stored entries."""
    y = np.zeros((a.shape[0], x.shape[1]), x.dtype)
    for i in range(a.shape[0]):
        entries = range(a.indptr[i], a.indptr[i + 1])
        for jj in (reversed(entries) if reverse else entries):
            y[i] = y[i] + a.data[jj] * x[a.indices[jj]]
    return y


def _kernel_product(a, x: np.ndarray) -> np.ndarray:
    y = np.empty((a.shape[0], x.shape[1]), x.dtype)
    _product(a, x.reshape(-1), y.reshape(-1), x.shape[1])
    return y


class TestCsrRowOrder:
    """The diffusion kernels' ``csr_matvecs`` product equals a NumPy loop
    over each row in stored order, byte for byte, sorted or not."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12),
           vecs=st.integers(1, 6), shuffled=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_kernel_sums_rows_in_stored_order(self, rows, cols, vecs,
                                              shuffled, seed):
        a, x = _random_block_csr(seed, rows, cols, vecs, shuffled)
        message = ROW_ORDER_CONTRACT.format(version=scipy.__version__)
        assert _kernel_product(a, x).tobytes() == \
            _stored_order_product(a, x).tobytes(), message

    def test_reversed_row_order_would_differ(self):
        a, x = _random_block_csr(0, 12, 12, 4, shuffled=True)
        assert _kernel_product(a, x).tobytes() != \
            _stored_order_product(a, x, reverse=True).tobytes()


# ---------------------------------------------------------------------------
# Mixed-precision storage: f16 store -> f32 compute round-trip bounds
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_dataset():
    from repro.datasets import load_dataset
    return load_dataset("pems-bay", nodes=12, entries=200, seed=0)


@pytest.fixture(scope="module")
def index_pair(tiny_dataset):
    from repro.preprocessing.index_batching import IndexDataset
    f32 = IndexDataset.from_dataset(tiny_dataset, horizon=4,
                                    store_dtype="float32")
    f16 = IndexDataset.from_dataset(tiny_dataset, horizon=4,
                                    store_dtype="float16")
    return f32, f16


class TestMixedPrecisionStorage:
    def test_f16_halves_resident_data(self, index_pair):
        f32, f16 = index_pair
        assert f16.data.dtype == np.float16
        assert f16.data.nbytes * 2 == f32.data.nbytes
        # Index array included, the whole resident set still shrinks 1.8x.
        assert f32.resident_nbytes >= 1.8 * f16.resident_nbytes

    def test_round_trip_error_bounded(self, index_pair):
        """|f16(x) - x| <= eps_rel * |x| + eps_abs elementwise: one
        float16 rounding of the standardized signal, nothing more."""
        f32, f16 = index_pair
        a = f32.data.astype(np.float32)
        b = f16.data.astype(np.float32)
        bound = np.abs(a) * 2.0**-10 + 2.0**-24
        assert np.all(np.abs(a - b) <= bound)

    @settings(max_examples=20, deadline=None)
    @given(at=st.integers(0, 10**9), n=st.integers(1, 8))
    def test_gather_casts_to_compute_dtype(self, index_pair, at, n):
        f32, f16 = index_pair
        starts = f16.split_starts("train")
        sel = starts[(at + np.arange(n)) % len(starts)]
        x16, y16 = f16.gather(sel)
        x32, y32 = f32.gather(sel)
        assert x16.dtype == np.float16
        bound = np.abs(x32) * 2.0**-10 + 2.0**-24
        assert np.all(np.abs(x32 - x16.astype(f32.data.dtype)) <= bound)
        assert np.all(np.abs(y32 - y16.astype(f32.data.dtype))
                      <= np.abs(y32) * 2.0**-10 + 2.0**-24)


# ---------------------------------------------------------------------------
# Serving: an f16 feature store halves the ring; compute stays float32
# ---------------------------------------------------------------------------
class TestF16ServingStore:
    @pytest.fixture(scope="class")
    def trained(self):
        from repro.api import RunSpec, run
        return run(RunSpec(dataset="pems-bay", model="pgt-dcrnn",
                           batching="index", scale="tiny", seed=0, epochs=1))

    def _warm(self, svc, trained):
        ds = trained.artifacts.dataset
        warm = 2 * svc.session.horizon
        for values, ts in zip(ds.signals[-warm:], ds.timestamps[-warm:]):
            svc.ingest(values, float(ts))

    def test_f16_store_shrinks_resident_bytes(self, trained):
        from repro.api import serve
        # Large enough capacity that the fixed f64 staging row does not
        # dominate the ring bytes the precision choice halves.
        base = serve(trained, store_capacity=64).session.store
        half = serve(trained, store_capacity=64,
                     store_dtype="float16").session.store
        assert half.dtype == np.float16 and base.dtype == np.float32
        assert base.resident_nbytes > 1.8 * half.resident_nbytes

    def test_f16_store_forecast_stays_close(self, trained):
        from repro.api import serve
        exact = serve(trained)
        half = serve(trained, store_dtype="float16")
        self._warm(exact, trained)
        self._warm(half, trained)
        a = exact.session.forecast_current().copy()
        b = half.session.forecast_current().copy()
        np.testing.assert_allclose(b, a, rtol=0, atol=5e-2)
