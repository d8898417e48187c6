"""Tests for the ``repro.runtime`` distributed execution layer.

Covers the transport protocol (simulated and threaded), the single
collectives implementation, gradient bucketing, the ``ProcessGroup``
facade — and the two refactor guarantees this layer was built under:

- **Behavior preservation**: fixed-seed ``DDPTrainer`` loss curves and
  per-category byte counts under ``SimTransport`` are pinned to the
  values the pre-refactor simulated communicator produced (captured at
  the parent commit with the same data/model/seed).
- **Cross-transport equivalence**: ``SimTransport`` and
  ``ThreadTransport`` produce bitwise-identical fixed-seed training for
  all three DDP strategies.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd.sparse_kernels import stacked_csr
from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.nn.module import Parameter
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import (
    FaultPlan,
    FaultyTransport,
    GradientBucketer,
    ProcessGroup,
    ProcessTransport,
    SimTransport,
    ThreadTransport,
    Transport,
    as_process_group,
)
from repro.runtime.transport import COLLECTIVE_KINDS
from repro.training import DDPStrategy, DDPTrainer, Trainer
from repro.utils.errors import CommunicatorError


# ---------------------------------------------------------------------------
# Collectives: one implementation, every transport
# ---------------------------------------------------------------------------
@pytest.fixture(params=["sim", "thread"])
def pg(request):
    def make(world):
        return (ProcessGroup.sim(world) if request.param == "sim"
                else ProcessGroup.threads(world))
    return make


class TestCollectives:
    @pytest.mark.parametrize("world", [1, 2, 3, 5, 7, 8])
    def test_allreduce_matches_numpy_mean_reference(self, pg, world):
        rng = np.random.default_rng(world)
        arrays = [rng.standard_normal(23).astype(np.float32)
                  for _ in range(world)]
        out = pg(world).allreduce(arrays, op="mean")
        reference = np.stack(arrays).mean(axis=0).astype(np.float32)
        assert len(out) == world
        for o in out:
            np.testing.assert_array_equal(o, reference)

    @settings(max_examples=30, deadline=None)
    @given(world=st.integers(1, 8), n=st.integers(1, 64),
           seed=st.integers(0, 2**16))
    def test_allreduce_mean_property(self, world, n, seed):
        """Property: ring all-reduce == NumPy mean, any world size 1-8."""
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(n) for _ in range(world)]
        out = ProcessGroup.sim(world).allreduce(arrays, op="mean")[0]
        np.testing.assert_array_equal(out, np.stack(arrays).mean(axis=0))

    def test_sum_and_dtype_preserved(self, pg):
        g = pg(3)
        arrays = [np.array([1.0, -2.0], np.float32) * (r + 1) for r in range(3)]
        s = g.allreduce(arrays, op="sum")[0]
        np.testing.assert_allclose(s, [6.0, -12.0])
        assert s.dtype == np.float32

    def test_results_are_independent_copies(self, pg):
        out = pg(2).allreduce([np.zeros(2), np.ones(2)])
        out[0][0] = 99.0
        assert out[1][0] != 99.0

    def test_shape_and_length_validation(self, pg):
        g = pg(2)
        with pytest.raises(CommunicatorError):
            g.allreduce([np.zeros(2), np.zeros(3)])
        with pytest.raises(CommunicatorError):
            g.allreduce([np.zeros(2)])
        with pytest.raises(CommunicatorError):
            g.allreduce([np.zeros(2)] * 2, op="prod")



# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------
#: Every fabric that implements ``Transport``, built at world 2.
FABRICS = {
    "sim": lambda: SimTransport(2),
    "thread": lambda: ThreadTransport(2),
    "process": lambda: ProcessTransport(2),
    "faulty": lambda: FaultyTransport(SimTransport(2), FaultPlan()),
}


class TestSimTransport:
    def test_collective_synchronizes_to_slowest(self):
        t = SimTransport(3)
        t.advance_compute(0, 1.0)
        t.advance_compute(1, 5.0)
        ProcessGroup(t).allreduce([np.zeros(1)] * 3)
        times = [c.now for c in t.clocks]
        assert len(set(times)) == 1 and times[0] > 5.0

    def test_run_ranks_sequential_in_rank_order(self):
        t = SimTransport(4)
        order = []
        out = t.run_ranks(lambda r: order.append(r) or r * 10)
        assert order == [0, 1, 2, 3]
        assert out == [0, 10, 20, 30]

    @pytest.mark.parametrize("fabric", FABRICS)
    @pytest.mark.parametrize("kind", ["alltoall", "reduce_scatter",
                                      "allgather"])
    def test_unknown_collective_kind(self, fabric, kind):
        """Only the kinds in ``COLLECTIVE_KINDS`` are priced; a kind no
        caller issues fails loudly on every fabric instead of being
        charged as something else."""
        transport = FABRICS[fabric]()
        with pytest.raises(CommunicatorError, match="unknown collective"):
            transport.collective(kind, 8, "x")
        assert transport.stats.ops == 0


class TestCollectiveKinds:
    """What each kind in ``COLLECTIVE_KINDS`` costs: the gradient
    all-reduce and the broadcast a resume charges."""

    @pytest.mark.parametrize("kind", COLLECTIVE_KINDS)
    def test_sim_prices_each_kind_with_its_cost_model(self, kind):
        t = SimTransport(8)                  # two Polaris nodes
        t.collective(kind, 4096, "c")
        expected = getattr(t.cost, f"{kind}_time")(4096)
        assert expected > 0 and t.now == expected
        assert t.stats.bytes_by_category == {"c": 4096}
        assert t.stats.ops == 1

    @pytest.mark.parametrize("kind", COLLECTIVE_KINDS)
    def test_repeat_is_one_multiply(self, kind):
        """``repeat`` charges n identical ops in one call, bitwise equal
        to n times one op (the performance model relies on it)."""
        one, many = SimTransport(8), SimTransport(8)
        one.collective(kind, 4096, "c")
        many.collective(kind, 4096, "c", repeat=7)
        assert many.now == one.now * 7
        assert many.stats.bytes_by_category == {"c": 7 * 4096}
        assert many.stats.ops == 7

    @pytest.mark.parametrize("kind", COLLECTIVE_KINDS)
    def test_real_fabrics_record_measured_seconds(self, kind):
        t = ThreadTransport(2)
        t.collective(kind, 4096, "c", record_bytes=100, repeat=3,
                     measured_seconds=0.5)
        assert t.stats.bytes_by_category == {"c": 300}
        assert t.stats.time_by_category == {"c": 0.5}
        assert t.stats.ops == 3


class TestThreadTransport:
    def test_run_ranks_results_in_rank_order(self):
        t = ThreadTransport(4)
        barrier = threading.Barrier(4, timeout=10)

        def fn(rank):
            barrier.wait()  # deadlocks unless all ranks really run at once
            return rank * 10
        assert t.run_ranks(fn) == [0, 10, 20, 30]
        t.shutdown()

    def test_parallel_false_runs_inline(self):
        t = ThreadTransport(3, parallel=False)
        main = threading.get_ident()
        idents = t.run_ranks(lambda r: threading.get_ident())
        assert all(i == main for i in idents)

    def test_exception_propagates_after_join(self):
        t = ThreadTransport(2)

        def fn(rank):
            if rank == 1:
                raise RuntimeError("rank 1 boom")
            return rank
        with pytest.raises(RuntimeError, match="rank 1 boom"):
            t.run_ranks(fn)
        t.shutdown()

    def test_rank_failure_joins_and_reaps_worker_threads(self):
        """Regression: a raising rank callable used to leave the worker
        pool's threads alive behind the propagated exception — nobody
        owns a transport whose trainer just died, so they leaked until
        interpreter exit.  The failure path must join *every* rank (the
        slow healthy ranks finish their step) and tear the pool down."""
        t = ThreadTransport(4)
        t.run_ranks(lambda r: r)                 # spin the pool up
        pool_threads = list(t._pool._threads)
        assert any(th.is_alive() for th in pool_threads)
        finished = []

        def fn(rank):
            if rank == 1:
                raise ValueError("rank 1 died")
            time.sleep(0.02)                     # healthy ranks mid-step
            finished.append(rank)
            return rank

        with pytest.raises(ValueError, match="rank 1 died"):
            t.run_ranks(fn)
        # Barrier semantics: every healthy rank completed its step
        # before the exception surfaced...
        assert sorted(finished) == [0, 2, 3]
        # ...and no worker thread outlives the failure.
        assert t._pool is None
        for th in pool_threads:
            th.join(timeout=5)
            assert not th.is_alive()

    def test_failed_transport_is_reusable(self):
        """After an aborted step the pool rebuilds lazily — the recovery
        path reuses the same transport object."""
        t = ThreadTransport(3)

        def fail(rank):
            raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            t.run_ranks(fail)
        assert t.run_ranks(lambda r: r * 2) == [0, 2, 4]
        t.shutdown()

    def test_lowest_rank_exception_wins(self):
        """Deterministic error surfacing: when several ranks fail in the
        same step, the lowest rank's exception propagates regardless of
        thread timing."""
        t = ThreadTransport(4)

        def fn(rank):
            if rank in (1, 3):
                raise RuntimeError(f"rank {rank} failed")
            return rank
        for _ in range(5):
            with pytest.raises(RuntimeError, match="rank 1 failed"):
                t.run_ranks(fn)

    def test_records_bytes_not_simulated_time(self):
        g = ProcessGroup.threads(2)
        g.allreduce([np.zeros(100)] * 2, category="gradient")
        assert g.stats.bytes_by_category["gradient"] == 800
        assert g.now >= 0.0


class TestProcessGroupFacade:
    @pytest.mark.parametrize("fabric", FABRICS)
    def test_every_fabric_satisfies_the_protocol(self, fabric):
        transport = FABRICS[fabric]()
        assert isinstance(transport, Transport)
        assert as_process_group(transport).transport is transport

    def test_partial_fabric_is_not_a_transport(self):
        class NoDataPlane:
            world_size = 2
            stats = None

            def run_ranks(self, fn, *, parallel=True): ...
            def advance_compute(self, rank, seconds): ...
            def collective(self, kind, nbytes, category, **kw): ...
            def charge(self, category, nbytes, seconds, ops=1): ...
            now = 0.0
            def elapsed_breakdown(self): ...

        assert not isinstance(NoDataPlane(), Transport)
        with pytest.raises(TypeError, match="cannot interpret"):
            as_process_group(NoDataPlane())

    def test_fetch_of_nothing_is_free(self, pg):
        g = pg(2)
        g.fetch_all(0, messages_per_rank=4)
        assert g.stats.ops == 0 and g.stats.total_bytes() == 0

    def test_charge_records_pre_priced_traffic(self, pg):
        g = pg(2)
        g.charge("data", 512, 0.25, ops=3)
        assert g.stats.bytes_by_category == {"data": 512}
        assert g.stats.time_by_category == {"data": 0.25}
        assert g.stats.ops == 3

    def test_as_process_group_normalises(self):
        g = ProcessGroup.sim(2)
        assert as_process_group(g) is g
        assert as_process_group(SimTransport(3)).world_size == 3
        assert as_process_group(None, world_size=4).world_size == 4
        with pytest.raises(TypeError):
            as_process_group(object())
        with pytest.raises(ValueError):
            as_process_group(None)

    def test_third_party_transport_plugs_in(self):
        """Anything satisfying the Transport protocol is accepted."""
        from repro.runtime import CommStats

        class RecordingTransport:
            def __init__(self):
                self.world_size = 2
                self.stats = CommStats()

            def run_ranks(self, fn, *, parallel=True):
                return [fn(r) for r in range(self.world_size)]

            def advance_compute(self, rank, seconds):
                pass

            def collective(self, kind, nbytes, category, *,
                           record_bytes=None, repeat=1,
                           measured_seconds=0.0):
                self.stats.record(category,
                                  (nbytes if record_bytes is None
                                   else record_bytes) * repeat, 0.0, repeat)

            def contended_fetch(self, total_bytes, messages, category):
                self.stats.record(category, total_bytes, 0.0)

            def charge(self, category, nbytes, seconds, ops=1):
                self.stats.record(category, nbytes, seconds, ops)

            @property
            def now(self):
                return 0.0

            def elapsed_breakdown(self):
                return {"compute": 0.0, "comm": 0.0, "wall": 0.0}

        g = as_process_group(RecordingTransport())
        out = g.allreduce([np.zeros(4), np.ones(4)])
        np.testing.assert_array_equal(out[0], np.full(4, 0.5))
        assert g.stats.bytes_by_category["gradient"] == 32

    def test_breakdown_keys(self):
        b = ProcessGroup.sim(2).elapsed_breakdown()
        assert set(b) == {"compute", "comm", "wall"}


# ---------------------------------------------------------------------------
# Gradient bucketing
# ---------------------------------------------------------------------------
def _params(shapes, dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.standard_normal(s).astype(dtype)) for s in shapes]


class TestGradientBucketer:
    def test_single_bucket_under_cap(self):
        b = GradientBucketer(_params([(4, 4), (8,), (3, 2)]))
        assert b.num_buckets == 1
        assert b.total_bytes == 4 * (16 + 8 + 6)

    def test_cap_splits_buckets_in_ready_order(self):
        params = _params([(100,), (200,), (300,)])
        b = GradientBucketer(params, bucket_cap_mb=300 * 4 / (1 << 20))
        # Reverse registration order: param 2 fills the first bucket.
        assert b.num_buckets >= 2
        assert b.buckets[0].slots[0].param_index == 2

    def test_oversized_param_gets_own_bucket(self):
        params = _params([(4,), (10_000,), (4,)])
        b = GradientBucketer(params, bucket_cap_mb=1e-4)
        assert b.num_buckets == 3

    def test_dtype_grouping(self):
        params = _params([(4,)]) + _params([(4,)], dtype=np.float64)
        b = GradientBucketer(params)
        assert b.num_buckets == 2
        assert {bk.dtype for bk in b.buckets} == {np.dtype(np.float32),
                                                 np.dtype(np.float64)}

    def test_pack_unpack_roundtrip(self):
        params = _params([(4, 4), (8,), (3, 2)])
        grads = []
        rng = np.random.default_rng(1)
        for p in params:
            p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
            grads.append(p.grad.copy())
        b = GradientBucketer(params, bucket_cap_mb=1e-4)
        bufs = b.pack(params, b.make_buffers())
        for p in params:
            p.grad = None
        b.unpack(bufs, params)
        for p, g in zip(params, grads):
            np.testing.assert_array_equal(p.grad, g)

    def test_none_grad_packs_zeros(self):
        params = _params([(4,)])
        params[0].grad = None
        bufs = GradientBucketer(params).pack(params,
                                             GradientBucketer(params).make_buffers())
        np.testing.assert_array_equal(bufs[0], np.zeros(4, np.float32))

    def test_unpack_reuses_grad_buffer_in_place(self):
        params = _params([(4,)])
        params[0].grad = np.zeros(4, np.float32)
        held = params[0].grad
        b = GradientBucketer(params)
        bufs = b.make_buffers()
        bufs[0][:] = 3.0
        b.unpack(bufs, params)
        assert params[0].grad is held
        np.testing.assert_array_equal(held, np.full(4, 3.0))

    def test_buffer_validation(self):
        params = _params([(4,)])
        b = GradientBucketer(params)
        with pytest.raises(ValueError):
            b.pack(params, [])
        with pytest.raises(ValueError):
            b.pack(params, [np.zeros(3, np.float32)])
        with pytest.raises(ValueError):
            GradientBucketer([])
        with pytest.raises(ValueError):
            GradientBucketer(params, bucket_cap_mb=0)


# ---------------------------------------------------------------------------
# Fixed-seed training: preservation + cross-transport equivalence
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_setup():
    ds = load_dataset("pems-bay", nodes=8, entries=220, seed=3)
    idx = IndexDataset.from_dataset(ds, horizon=4)
    supports = dual_random_walk_supports(ds.graph.weights)
    return idx, supports


def _factory(supports):
    return lambda: PGTDCRNN(supports, horizon=4, in_features=2,
                            hidden_dim=8, seed=0)


def _fit_ddp(idx, supports, strategy, pg, *, epochs=3, bucket_cap_mb=25.0,
             with_val=True):
    model = _factory(supports)()
    opt = Adam(model.parameters(), lr=0.01)
    tr = DDPTrainer(model, opt, pg,
                    IndexBatchLoader(idx, "train", 8),
                    IndexBatchLoader(idx, "val", 8) if with_val else None,
                    strategy=strategy, scaler=idx.scaler, seed=0,
                    bucket_cap_mb=bucket_cap_mb)
    hist = tr.fit(epochs)
    return tr, [h.train_loss for h in hist]


#: Fixed-seed baselines captured at the parent commit with the original
#: simulated communicator (world 4, 3 epochs, pems-bay nodes=8 entries=220
#: seed=3, PGT-DCRNN hidden 8, Adam lr 0.01, batch 8).
PRE_REFACTOR = {
    DDPStrategy.BASELINE_DDP: (
        [0.5620473884046078, 0.42489857971668243, 0.41697229631245136],
        {"data": 147456, "gradient": 59184, "metric": 48}, 27,
        5.116998646153843e-05),
    DDPStrategy.DIST_INDEX: (
        [0.5620473884046078, 0.42489857971668243, 0.41697229631245136],
        {"gradient": 59184, "metric": 48}, 15,
        2.569542646153845e-05),
    DDPStrategy.GENERALIZED_INDEX: (
        [0.567205285653472, 0.4361720886081457, 0.4174777027219534],
        {"data": 18432, "gradient": 59184, "metric": 48}, 27,
        4.987974646153843e-05),
}

#: ``Trainer`` fixed-seed curve at the parent commit (batch 16, 3 epochs).
PRE_REFACTOR_SINGLE = [0.4992162817054325, 0.39737825592358905,
                       0.3664280308617486]


class TestBehaviorPreservation:
    """The runtime refactor must not move a single bit of the sim path."""

    @pytest.mark.parametrize("strategy", list(DDPStrategy))
    def test_ddp_curves_and_bytes_identical_to_simcommunicator(
            self, tiny_setup, strategy):
        idx, supports = tiny_setup
        curve_exp, bytes_exp, ops_exp, now_exp = PRE_REFACTOR[strategy]
        tr, curve = _fit_ddp(idx, supports, strategy, ProcessGroup.sim(4))
        assert curve == curve_exp
        assert dict(tr.comm.stats.bytes_by_category) == bytes_exp
        assert tr.comm.stats.ops == ops_exp
        assert tr.comm.now == now_exp

    def test_single_device_curve_identical(self, tiny_setup):
        idx, supports = tiny_setup
        model = _factory(supports)()
        tr = Trainer(model, Adam(model.parameters(), lr=0.01),
                     IndexBatchLoader(idx, "train", 16),
                     IndexBatchLoader(idx, "val", 16),
                     scaler=idx.scaler, seed=0)
        hist = tr.fit(3)
        assert [h.train_loss for h in hist] == PRE_REFACTOR_SINGLE


class TestCrossTransportEquivalence:
    """Sim and thread transports must train to identical bits."""

    @pytest.mark.parametrize("strategy", list(DDPStrategy))
    def test_thread_matches_sim_bitwise(self, tiny_setup, strategy):
        idx, supports = tiny_setup
        _, sim_curve = _fit_ddp(idx, supports, strategy,
                                ProcessGroup.sim(4), epochs=2,
                                with_val=False)
        tr, thr_curve = _fit_ddp(idx, supports, strategy,
                                 ProcessGroup.threads(4), epochs=2,
                                 with_val=False)
        assert thr_curve == sim_curve
        # Replicas stayed aliased to the shared parameters throughout.
        ref = tr.model.state_dict()
        for rep in tr._replicas[1:]:
            for name, arr in rep.state_dict().items():
                np.testing.assert_array_equal(arr, ref[name])

    def test_thread_ranks_run_concurrently(self, tiny_setup):
        """``ProcessGroup.threads`` alone makes rank steps concurrent: the
        trainer derives the replicas, no caller has to.  Both ranks must
        be inside a step at once to pass the barrier; ranks run one after
        the other never meet there."""
        import threading

        idx, supports = tiny_setup
        model = _factory(supports)()
        tr = DDPTrainer(model, Adam(model.parameters(), lr=0.01),
                        ProcessGroup.threads(2),
                        IndexBatchLoader(idx, "train", 8), seed=0)
        barrier = threading.Barrier(2, timeout=10)
        step = tr._microbatch_grads

        def spy(rank, sel):
            barrier.wait()
            return step(rank, sel)

        tr._microbatch_grads = spy
        tr.train_epoch(0)

    def test_replicas_alias_params_and_supports_only(self, tiny_setup):
        idx, supports = tiny_setup
        model = _factory(supports)()
        tr = DDPTrainer(model, Adam(model.parameters(), lr=0.01),
                        ProcessGroup.threads(2),
                        IndexBatchLoader(idx, "train", 8), seed=0)
        tr.train_epoch(0)
        shared, replica = tr._replicas
        assert shared is model and replica is not model
        for p, q in zip(shared.parameters(), replica.parameters()):
            assert q is not p and q.data is p.data
            assert q.grad is not None and q.grad is not p.grad
        for a, b in ((shared.cell.gates, replica.cell.gates),
                     (shared.cell.candidate, replica.cell.candidate)):
            assert all(x is y for x, y in zip(a.supports, b.supports))
            # Aliased supports resolve to one set of stacked operators.
            ops = stacked_csr(a.supports, np.dtype(np.float32))
            theirs = stacked_csr(b.supports, np.dtype(np.float32))
            assert all(x is y for x, y in zip(ops, theirs))
            assert ops[1].T is theirs[1].T
            assert a._scratch and b._scratch
            assert not any(x is y for x in a._scratch.values()
                           for y in b._scratch.values())
        assert replica.cell._scratch is not shared.cell._scratch
        assert all(a is b for a, b in zip(tr._rank_params[1],
                                          replica.parameters()))

    @pytest.mark.parametrize("make_pg", [
        lambda: ProcessGroup.sim(2),
        lambda: ProcessGroup.threads(2, parallel=False),
        lambda: ProcessGroup.processes(2, parallel=False),
    ], ids=["sim", "sequential-threads", "inline-processes"])
    def test_sequential_and_forked_ranks_share_the_model(self, tiny_setup,
                                                         make_pg):
        idx, supports = tiny_setup
        model = _factory(supports)()
        tr = DDPTrainer(model, Adam(model.parameters(), lr=0.01), make_pg(),
                        IndexBatchLoader(idx, "train", 8), seed=0)
        assert tr._replicas is None

    def test_foreign_optimizer_params_rejected_for_thread_ranks(
            self, tiny_setup):
        idx, supports = tiny_setup
        model, other = _factory(supports)(), _factory(supports)()
        with pytest.raises(CommunicatorError, match="optimizer params"):
            DDPTrainer(model, Adam(other.parameters(), lr=0.01),
                       ProcessGroup.threads(2),
                       IndexBatchLoader(idx, "train", 8), seed=0)

    def test_many_small_buckets_do_not_change_numerics(self, tiny_setup):
        idx, supports = tiny_setup
        tr1, one = _fit_ddp(idx, supports, DDPStrategy.DIST_INDEX,
                            ProcessGroup.sim(4), epochs=2, with_val=False)
        tr2, many = _fit_ddp(idx, supports, DDPStrategy.DIST_INDEX,
                             ProcessGroup.sim(4), epochs=2, with_val=False,
                             bucket_cap_mb=1e-4)  # one bucket per tensor
        assert many == one
        assert tr2.bucketer.num_buckets > tr1.bucketer.num_buckets == 1
        # Bucket layout moves the same gradient bytes either way.
        assert (tr1.comm.stats.bytes_by_category["gradient"]
                == tr2.comm.stats.bytes_by_category["gradient"])
        assert tr2.comm.stats.ops > tr1.comm.stats.ops
        # ...and pays ring latency per tensor instead of per bucket (the
        # bandwidth terms are equal, so a rounding-only gap does not count).
        assert tr2.comm.now > tr1.comm.now
        assert tr2.comm.now != pytest.approx(tr1.comm.now)

    def test_cloneless_loader_rejected_for_replicas(self):
        """A source without clone() must fail loudly, not share buffers."""
        from repro.batching.protocols import clone_batch_source

        class BufferedSource:
            batch_size = 4
            num_snapshots = 8

            def batches(self, order=None):
                return iter(())

            def batch_at(self, sel):
                return None, None

        with pytest.raises(TypeError, match="clone"):
            clone_batch_source(BufferedSource())


# ---------------------------------------------------------------------------
# Figures 7/9 on the ProcessGroup.stats traffic-category API
# ---------------------------------------------------------------------------
class TestScalingTrafficBreakdown:
    """Pin the gradient/data/metric breakdown the figures now report."""

    @staticmethod
    def by_category(row, unit):
        return {k.split(".", 1)[1]: v for k, v in row.items()
                if k.startswith(unit + ".")}

    def test_figure7_breakdown_pinned(self):
        from repro.experiments.scaling import figure7
        r = figure7()
        ddp4 = r["baseline-ddp@4"]
        assert self.by_category(ddp4, "comm_s")["gradient"] == \
            pytest.approx(0.00070956158, rel=1e-9)
        assert self.by_category(ddp4, "comm_s")["data"] == \
            pytest.approx(147.7833984, rel=1e-9)
        assert self.by_category(ddp4, "comm_bytes") == {
            "gradient": 73032316, "metric": 8, "data": 236453437440}
        di128 = r["dist-index@128"]
        assert "data" not in self.by_category(di128, "comm_s")
        assert self.by_category(di128, "comm_bytes") == {"gradient": 2035744,
                                                         "metric": 8}
        # The coarse split the figure has always reported is exactly the
        # sum of the public per-category stats plus framework overhead.
        from repro.training.perfmodel import EPOCH_FIXED_OVERHEAD
        total = sum(self.by_category(ddp4, "comm_s").values())
        assert ddp4["comm_min"] == pytest.approx(
            30 * (total + EPOCH_FIXED_OVERHEAD) / 60, rel=1e-12)

    def test_figure9_breakdown_pinned(self):
        from repro.experiments.scaling import figure9
        idx8 = figure9()["index@8"]
        assert self.by_category(idx8, "comm_s")["gradient"] == \
            pytest.approx(0.00655122468, rel=1e-9)
        assert self.by_category(idx8, "comm_s")["data"] == \
            pytest.approx(8.060081363555799, rel=1e-9)
        assert self.by_category(idx8, "comm_bytes") == {"gradient": 36388924,
                                                        "data": 15550254720}
        assert "metric" not in self.by_category(idx8, "comm_s")
        from repro.training.perfmodel import EPOCH_FIXED_OVERHEAD
        total = sum(self.by_category(idx8, "comm_s").values())
        assert idx8["comm_s"] == pytest.approx(
            total + EPOCH_FIXED_OVERHEAD, rel=1e-12)


# ---------------------------------------------------------------------------
# RunSpec / api.run integration
# ---------------------------------------------------------------------------
class TestTransportSpec:
    def test_spec_roundtrip_and_validation(self):
        from repro.api import RunSpec
        spec = RunSpec(dataset="pems-bay", strategy="dist-index",
                       world_size=2, transport="thread")
        assert RunSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            RunSpec(dataset="pems-bay", transport="mpi")
        with pytest.raises(ValueError):
            RunSpec(dataset="pems-bay", transport="thread")  # single

    def test_run_thread_transport_matches_sim(self):
        from repro.api import RunSpec, run
        kw = dict(dataset="pems-bay", model="pgt-dcrnn", batching="index",
                  scale="tiny", seed=0, strategy="dist-index",
                  world_size=2, epochs=1)
        sim = run(RunSpec(**kw))
        thr = run(RunSpec(**kw, transport="thread"))
        assert thr.train_curve == sim.train_curve
        assert thr.val_curve == sim.val_curve
