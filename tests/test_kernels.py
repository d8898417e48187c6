"""Tests for ``repro.kernels``: backend registry, fused-op parity,
mixed-precision storage, and the PreparedCSR cache bounds.

The compiled-backend parity properties run wherever numba is importable
and are recorded-skipped elsewhere; the numpy-backend properties (fused
GRU ops vs their unfused composition, f16-store round-trip bounds) run
everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.autograd import Tensor, functional as F
from repro.autograd.sparse_kernels import (
    _PREPARED,
    _PREPARED_DTYPES_MAX,
    _PREPARED_MAX,
    clear_prepared_cache,
    prepared_csr,
)
from repro.api import RunSpec
from repro.graph import dual_random_walk_supports, random_sensor_network
from repro.models.dconv import DiffusionConv
from repro.serving.sharding import ShardedSession

HAVE_NUMBA = "numba" in kernels.available_backends()

needs_numba = pytest.mark.skipif(
    not HAVE_NUMBA, reason="numba backend not importable here")


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_numpy_always_first(self):
        backends = kernels.available_backends()
        assert backends[0] == "numpy"
        assert set(backends) <= set(kernels.KNOWN_BACKENDS)

    def test_unknown_backend_is_loud(self):
        with pytest.raises(KeyError, match="unknown kernel backend"):
            kernels.get_backend("tpu")

    def test_known_but_missing_names_availability(self):
        if HAVE_NUMBA:
            pytest.skip("numba is installed; nothing is missing")
        with pytest.raises(KeyError, match="known but not available"):
            kernels.get_backend("numba")

    def test_use_backend_scopes_and_restores(self):
        before = kernels.active_backend()
        with kernels.use_backend("numpy") as b:
            assert b is kernels.active_backend()
            assert b.name == "numpy"
        assert kernels.active_backend() is before

    def test_use_backend_auto_is_noop(self):
        before = kernels.active_backend()
        for name in (None, "auto"):
            with kernels.use_backend(name) as b:
                assert b is before
        assert kernels.active_backend() is before

    def test_use_backend_restores_on_error(self):
        before = kernels.active_backend()
        with pytest.raises(RuntimeError):
            with kernels.use_backend("numpy"):
                raise RuntimeError("boom")
        assert kernels.active_backend() is before

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert kernels._resolve_default().name == "numpy"
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        assert kernels._resolve_default().name == "numpy"
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        assert kernels._resolve_default().name == "numpy"

    def test_numpy_backend_flags(self):
        b = kernels.get_backend("numpy")
        assert b.compiled is False
        assert b.fused_gru is False

    def test_runspec_validates_backend(self):
        with pytest.raises(KeyError, match="kernel backend"):
            RunSpec(dataset="pems-bay", backend="tpu")
        spec = RunSpec(dataset="pems-bay", backend="numpy")
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec(dataset="pems-bay").backend == "auto"


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

    def test_matrix_fifo_eviction(self):
        matrices = [_random_csr(8, seed) for seed in range(_PREPARED_MAX + 2)]
        for m in matrices:
            prepared_csr(m, np.float32)
        assert len(_PREPARED) <= _PREPARED_MAX
        assert id(matrices[0]) not in _PREPARED
        assert id(matrices[-1]) in _PREPARED


# ---------------------------------------------------------------------------
# Fused GRU ops vs their unfused composition (every backend)
# ---------------------------------------------------------------------------
def _gru_unfused(pre, h, cand_pre):
    """The pre-fusion op composition the numpy path is defined by."""
    hidden = h.shape[-1]
    g = pre.sigmoid()
    r = g[..., :hidden]
    u = g[..., hidden:]
    rh = r * h
    out = F.gru_update(u, h, cand_pre.tanh())
    return rh, u, out


@settings(max_examples=25, deadline=None)
@given(batch=st.integers(1, 4), nodes=st.integers(1, 12),
       hidden=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
def test_gru_fused_matches_composition(batch, nodes, hidden, seed):
    rng = np.random.default_rng(seed)
    shape = (batch, nodes, hidden)
    pre = rng.standard_normal(shape[:-1] + (2 * hidden,)).astype(np.float32)
    hdata = rng.standard_normal(shape).astype(np.float32)
    cand = rng.standard_normal(shape).astype(np.float32)
    gout = rng.standard_normal(shape).astype(np.float32)

    def run_fused():
        pt = Tensor(pre, requires_grad=True)
        ht = Tensor(hdata, requires_grad=True)
        ct = Tensor(cand, requires_grad=True)
        rh, u = F.gru_gates(pt, ht)
        out = F.gru_blend(u, ht, ct)
        (out + rh).backward(gout)
        return out.data, pt.grad, ht.grad, ct.grad

    def run_unfused():
        pt = Tensor(pre, requires_grad=True)
        ht = Tensor(hdata, requires_grad=True)
        ct = Tensor(cand, requires_grad=True)
        rh, _, out = _gru_unfused(pt, ht, ct)
        (out + rh).backward(gout)
        return out.data, pt.grad, ht.grad, ct.grad

    for fused, ref in zip(run_fused(), run_unfused()):
        np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(batch=st.integers(1, 3), hidden=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1))
def test_gru_fused_handles_2d_inputs(batch, hidden, seed):
    """The fused ops accept [batch, features] (no node axis) too."""
    rng = np.random.default_rng(seed)
    pre = Tensor(rng.standard_normal((batch, 2 * hidden)).astype(np.float32))
    h = Tensor(rng.standard_normal((batch, hidden)).astype(np.float32))
    cand = Tensor(rng.standard_normal((batch, hidden)).astype(np.float32))
    rh, u = F.gru_gates(pre, h)
    out = F.gru_blend(u, h, cand)
    rh_ref, u_ref, out_ref = _gru_unfused(pre, h, cand)
    np.testing.assert_allclose(rh.data, rh_ref.data, rtol=0, atol=1e-6)
    np.testing.assert_allclose(u.data, u_ref.data, rtol=0, atol=1e-6)
    np.testing.assert_allclose(out.data, out_ref.data, rtol=0, atol=1e-6)


def test_gru_gates_shape_check():
    pre = Tensor(np.zeros((2, 3, 8), np.float32))
    h = Tensor(np.zeros((2, 3, 3), np.float32))
    with pytest.raises(Exception, match="shape|gates"):
        F.gru_gates(pre, h)


# ---------------------------------------------------------------------------
# Compiled-backend parity (recorded-skipped without numba)
# ---------------------------------------------------------------------------
@needs_numba
@settings(max_examples=10, deadline=None)
@given(batch=st.integers(1, 4), nodes=st.integers(4, 24),
       channels=st.integers(1, 8), k_hops=st.integers(0, 3),
       seed=st.integers(0, 2**31 - 1))
def test_dconv_parity_numpy_vs_numba(batch, nodes, channels, k_hops, seed):
    g = random_sensor_network(nodes, seed=seed % 997)
    supports = dual_random_walk_supports(g.weights)
    conv = DiffusionConv(supports, channels, channels, k_hops=k_hops)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, nodes, channels)).astype(np.float32)
    gout = rng.standard_normal((batch, nodes, channels)).astype(np.float32)

    results = {}
    for backend in ("numpy", "numba"):
        with kernels.use_backend(backend):
            xt = Tensor(x, requires_grad=True)
            out = conv(xt)
            out.backward(gout)
            results[backend] = (out.data.copy(), xt.grad.copy())
    np.testing.assert_allclose(results["numba"][0], results["numpy"][0],
                               rtol=0, atol=1e-6)
    np.testing.assert_allclose(results["numba"][1], results["numpy"][1],
                               rtol=0, atol=1e-6)


@needs_numba
@settings(max_examples=10, deadline=None)
@given(batch=st.integers(1, 4), nodes=st.integers(1, 16),
       hidden=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
def test_gru_parity_numpy_vs_numba(batch, nodes, hidden, seed):
    rng = np.random.default_rng(seed)
    pre = rng.standard_normal((batch, nodes, 2 * hidden)).astype(np.float32)
    hdata = rng.standard_normal((batch, nodes, hidden)).astype(np.float32)
    cand = rng.standard_normal((batch, nodes, hidden)).astype(np.float32)
    gout = rng.standard_normal((batch, nodes, hidden)).astype(np.float32)

    results = {}
    for backend in ("numpy", "numba"):
        with kernels.use_backend(backend):
            pt = Tensor(pre, requires_grad=True)
            ht = Tensor(hdata, requires_grad=True)
            ct = Tensor(cand, requires_grad=True)
            rh, u = F.gru_gates(pt, ht)
            out = F.gru_blend(u, ht, ct)
            (out + rh).backward(gout)
            results[backend] = (out.data.copy(), pt.grad.copy(),
                                ht.grad.copy(), ct.grad.copy())
    for got, ref in zip(results["numba"], results["numpy"]):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-6)


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
# Sharded serving: f16 stores + zero-copy halo windows
# ---------------------------------------------------------------------------
class TestShardedZeroCopy:
    @pytest.fixture(scope="class")
    def trained(self):
        from repro.api import RunSpec, run
        return run(RunSpec(dataset="pems-bay", model="pgt-dcrnn",
                           batching="index", scale="tiny", seed=0, epochs=1))

    def _session(self, trained, **kw):
        return ShardedSession(
            trained.artifacts.model, trained.artifacts.loaders.scaler,
            trained.artifacts.dataset.graph, num_shards=2,
            spec=trained.spec, **kw)

    def _warm(self, session, trained):
        ds = trained.artifacts.dataset
        warm = 2 * session.horizon
        for values, ts in zip(ds.signals[-warm:], ds.timestamps[-warm:]):
            session.ingest(values, float(ts))

    def test_own_windows_share_one_pool(self, trained):
        s = self._session(trained)
        assert all(w.own_window is view for w, view
                   in zip(s.workers, s._window_pool.arrays))

    def test_windows_materialise_once_per_version(self, trained):
        s = self._session(trained)
        self._warm(s, trained)
        s.forecast_current()
        version = s._window_version
        assert all(w.window_version == version for w in s.workers)
        snapshots = [w.own_window.copy() for w in s.workers]
        # A second forecast at the same version reuses the shared views.
        s.forecast_current()
        for w, snap in zip(s.workers, snapshots):
            np.testing.assert_array_equal(w.own_window, snap)
        # An ingest invalidates: the version moves past every stamp.
        ds = trained.artifacts.dataset
        s.ingest(ds.signals[0], float(ds.timestamps[0]))
        assert all(w.window_version < s._window_version for w in s.workers)

    def test_f16_store_shrinks_resident_bytes(self, trained):
        # Large enough capacity that the fixed f64 staging row does not
        # dominate the ring bytes the precision choice halves.
        base = self._session(trained, store_capacity=64)
        half = self._session(trained, store_capacity=64,
                             store_dtype="float16")
        sb = base.halo_stats()
        sh = half.halo_stats()
        assert sh["store_dtype"] == "float16"
        assert all(w.store._ring.dtype == np.float16 for w in half.workers)
        assert sb["store_resident_bytes"] > 1.8 * sh["store_resident_bytes"]

    def test_f16_store_forecast_stays_close(self, trained):
        exact = self._session(trained)
        half = self._session(trained, store_dtype="float16")
        self._warm(exact, trained)
        self._warm(half, trained)
        a = exact.forecast_current().copy()
        b = half.forecast_current().copy()
        np.testing.assert_allclose(b, a, rtol=0, atol=5e-2)

    def test_failover_rebuilds_pool(self, trained):
        s = self._session(trained, num_standby=1)
        self._warm(s, trained)
        before = s.forecast_current().copy()
        s.kill_worker(0)
        after = s.forecast_current().copy()
        np.testing.assert_array_equal(after, before)
        assert all(w.own_window is view for w, view
                   in zip(s.workers, s._window_pool.arrays))
