"""Tests for the ``repro.runtime`` distributed execution layer.

Covers the transport protocol (simulated and process fabrics), the
single collectives implementation, the ``ProcessGroup`` facade — and the
two refactor guarantees this layer was built under:

- **Behavior preservation**: fixed-seed ``DDPTrainer`` loss curves and
  per-category byte counts under ``SimTransport`` are pinned to the
  values the pre-refactor simulated communicator produced (captured at
  the parent commit with the same data/model/seed).
- **Cross-transport equivalence**: ``SimTransport`` and
  ``ProcessTransport`` produce bitwise-identical fixed-seed training for
  all three DDP strategies (pinned in ``tests/test_fabric.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd.tensor import Tensor
from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import (
    FaultPlan,
    FaultyTransport,
    ProcessGroup,
    ProcessTransport,
    SimTransport,
    Transport,
    as_process_group,
)
from repro.runtime.transport import COLLECTIVE_KINDS
from repro.training import DDPStrategy, DDPTrainer, Trainer
from repro.utils.errors import CommunicatorError


# ---------------------------------------------------------------------------
# Collectives: one implementation, every transport
# ---------------------------------------------------------------------------
@pytest.fixture(params=["sim", "inline", "process"])
def pg(request):
    def make(world):
        if request.param == "sim":
            return ProcessGroup.sim(world)
        return ProcessGroup.processes(world,
                                      parallel=request.param == "process")
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
    "inline": lambda: ProcessTransport(2, parallel=False),
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
        t = ProcessTransport(2)
        t.collective(kind, 4096, "c", record_bytes=100, repeat=3,
                     measured_seconds=0.5)
        assert t.stats.bytes_by_category == {"c": 300}
        assert t.stats.time_by_category == {"c": 0.5}
        assert t.stats.ops == 3


class TestProcessTransport:
    """The one concurrent-capable fabric, inline and forked alike."""

    @pytest.fixture(params=["inline", "forked"])
    def make(self, request):
        made = []

        def make(world):
            t = ProcessTransport(world, parallel=request.param == "forked")
            made.append(t)
            return t

        yield make
        for t in made:
            t.shutdown()

    def test_run_ranks_results_in_rank_order(self, make):
        assert make(4).run_ranks(lambda r: r * 10) == [0, 10, 20, 30]

    def test_lowest_rank_exception_wins(self, make):
        t = make(4)

        def fn(rank):
            if rank in (1, 3):
                raise RuntimeError(f"rank {rank} failed")
            return rank
        with pytest.raises(RuntimeError, match="rank 1 failed"):
            t.run_ranks(fn)

    def test_failed_transport_is_reusable(self, make):
        """The recovery path reuses the transport an aborted step ran on."""
        t = make(3)

        def fail(rank):
            raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            t.run_ranks(fail)
        assert t.run_ranks(lambda r: r * 2) == [0, 2, 4]

    def test_records_bytes_not_simulated_time(self, make):
        g = ProcessGroup(make(2))
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


def _ddp(idx, supports, strategy, pg, *, with_val=True):
    model = _factory(supports)()
    opt = Adam(model.parameters(), lr=0.01)
    return DDPTrainer(model, opt, pg,
                      IndexBatchLoader(idx, "train", 8),
                      IndexBatchLoader(idx, "val", 8) if with_val else None,
                      strategy=strategy, scaler=idx.scaler, seed=0)


def _fit_ddp(idx, supports, strategy, pg, *, epochs=3, with_val=True):
    tr = _ddp(idx, supports, strategy, pg, with_val=with_val)
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


class TestRepeatedFit:
    def test_second_fit_continues_where_the_first_stopped(self, tiny_setup):
        """``fit(n)`` trains until epoch ``n``, as after a resume and as
        ``Trainer.fit`` does: ``fit(1); fit(2)`` records epochs 0 and 1,
        bit for bit the records of one ``fit(2)``."""
        idx, supports = tiny_setup
        once = _ddp(idx, supports, DDPStrategy.DIST_INDEX, ProcessGroup.sim(2))
        twice = _ddp(idx, supports, DDPStrategy.DIST_INDEX,
                     ProcessGroup.sim(2))
        once.fit(2)
        twice.fit(1)
        twice.fit(2)
        assert [r.epoch for r in twice.history] == [0, 1]
        assert ([(r.train_loss, r.val_mae) for r in twice.history]
                == [(r.train_loss, r.val_mae) for r in once.history])


class TestCrossTransportEquivalence:
    """Every rank computes on the one model, however the ranks run."""

    @pytest.mark.parametrize("make_pg", [
        lambda: ProcessGroup.sim(2),
        lambda: ProcessGroup.processes(2),
        lambda: ProcessGroup.processes(2, parallel=False),
    ], ids=["sim", "forked-processes", "inline-processes"])
    def test_sequential_and_forked_ranks_share_the_model(self, tiny_setup,
                                                         make_pg):
        """The first step's rank losses are the trainer's own model's
        losses on each rank's microbatch: no rank trains a replica the
        driver does not hold (a fork snapshot is the model itself)."""
        idx, supports = tiny_setup
        model = _factory(supports)()
        tr = DDPTrainer(model, Adam(model.parameters(), lr=0.01), make_pg(),
                        IndexBatchLoader(idx, "train", 8), seed=0)
        plan = tr.sampler.epoch_plan(0)
        expected = []
        for rank in range(tr.world_size):
            x, y = tr.train_loader.batch_at(plan[rank][0])
            loss = tr.loss_fn(model(Tensor(x)), y[..., :1].astype(np.float32))
            expected.append(float(loss.item()))
        run_ranks, steps = tr.comm.run_ranks, []

        def recorded(fn, *, parallel=True):
            steps.append(run_ranks(fn, parallel=parallel))
            return steps[-1]

        tr.comm.run_ranks = recorded
        tr.train_epoch(0)
        assert steps[0] == expected

    def test_rank_gradients_land_in_rank_buffers(self, tiny_setup):
        """Each forked rank binds the model's parameters to its own
        shared-memory buffer, so its backward writes there and nowhere
        else, and the driver reads every rank's gradient in place."""
        idx, supports = tiny_setup
        model = _factory(supports)()
        tr = DDPTrainer(model, Adam(model.parameters(), lr=0.01),
                        ProcessGroup.processes(2),
                        IndexBatchLoader(idx, "train", 8), seed=0)
        step = tr._microbatch_grads

        def checked(rank, sel):       # runs inside the rank's child
            loss = step(rank, sel)
            for p in tr.optimizer.params:
                assert np.shares_memory(p.grad, tr._grad_bufs[rank])
                assert not np.shares_memory(p.grad, tr.optimizer.grad)
            return loss

        tr._microbatch_grads = checked
        tr.train_epoch(0)
        assert all(np.any(buf) for buf in tr._grad_bufs)
        assert not np.array_equal(*tr._grad_bufs)
        tr.comm.transport.shutdown()

    def test_one_allreduce_per_step_over_the_flat_gradient(self, tiny_setup):
        """Every step reduces the ranks' flat buffers in one all-reduce of
        ``optimizer.grad``'s bytes, straight into the optimizer's store."""
        idx, supports = tiny_setup
        tr, _ = _fit_ddp(idx, supports, DDPStrategy.DIST_INDEX,
                         ProcessGroup.sim(4), epochs=1, with_val=False)
        stats, grad = tr.comm.stats, tr.optimizer.grad
        assert stats.ops == tr.global_step > 0
        assert (stats.bytes_by_category["gradient"]
                == tr.global_step * grad.nbytes)
        assert all(buf.shape == grad.shape for buf in tr._grad_bufs)
        for p, view in zip(tr.optimizer.params,
                           tr.optimizer.views(tr.optimizer.data)):
            assert np.shares_memory(p.data, view)

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
                       world_size=2, transport="process")
        assert RunSpec.from_dict(spec.to_dict()) == spec
        for transport in ("mpi", "thread"):
            with pytest.raises(ValueError, match="transport must be one of"):
                RunSpec(dataset="pems-bay", strategy="dist-index",
                        world_size=2, transport=transport)
        with pytest.raises(ValueError):
            RunSpec(dataset="pems-bay", transport="process")  # single

    def test_run_process_transport_matches_sim(self):
        from repro.api import RunSpec, run
        kw = dict(dataset="pems-bay", model="pgt-dcrnn", batching="index",
                  scale="tiny", seed=0, strategy="dist-index",
                  world_size=2, epochs=1)
        sim = run(RunSpec(**kw))
        forked = run(RunSpec(**kw, transport="process"))
        assert forked.train_curve == sim.train_curve
        assert forked.val_curve == sim.val_curve
