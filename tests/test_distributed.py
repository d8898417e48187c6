"""Unit tests for the simulated communicator."""

import numpy as np
import pytest

from repro.cluster import ClusterTopology, CommCostModel
from repro.runtime import ProcessGroup
from repro.utils.errors import CommunicatorError


class TestAllreduce:
    def test_mean_semantics(self):
        comm = ProcessGroup.sim(4)
        arrays = [np.full(3, float(r)) for r in range(4)]
        out = comm.allreduce(arrays, op="mean")
        for o in out:
            np.testing.assert_allclose(o, 1.5)

    def test_sum_and_max(self):
        comm = ProcessGroup.sim(3)
        arrays = [np.array([1.0, -2.0]) * (r + 1) for r in range(3)]
        np.testing.assert_allclose(comm.allreduce(arrays, op="sum")[0],
                                   [6.0, -12.0])
        np.testing.assert_allclose(comm.allreduce(arrays, op="max")[0],
                                   [3.0, -2.0])

    def test_results_are_independent_copies(self):
        comm = ProcessGroup.sim(2)
        out = comm.allreduce([np.zeros(2), np.ones(2)])
        out[0][0] = 99.0
        assert out[1][0] != 99.0

    def test_dtype_preserved(self):
        comm = ProcessGroup.sim(2)
        out = comm.allreduce([np.zeros(2, np.float32), np.ones(2, np.float32)])
        assert out[0].dtype == np.float32

    def test_shape_mismatch_rejected(self):
        comm = ProcessGroup.sim(2)
        with pytest.raises(CommunicatorError):
            comm.allreduce([np.zeros(2), np.zeros(3)])

    def test_wrong_list_length_rejected(self):
        comm = ProcessGroup.sim(3)
        with pytest.raises(CommunicatorError):
            comm.allreduce([np.zeros(2)] * 2)

    def test_unsupported_op(self):
        comm = ProcessGroup.sim(2)
        with pytest.raises(CommunicatorError):
            comm.allreduce([np.zeros(2)] * 2, op="prod")


class TestClockSemantics:
    def test_collective_synchronizes_to_slowest(self):
        comm = ProcessGroup.sim(3)
        comm.advance_compute(0, 1.0)
        comm.advance_compute(1, 5.0)  # straggler
        comm.allreduce([np.zeros(1)] * 3)
        times = [c.now for c in comm.transport.clocks]
        assert len(set(times)) == 1
        assert times[0] > 5.0

    def test_comm_time_includes_waiting(self):
        comm = ProcessGroup.sim(2)
        comm.advance_compute(0, 10.0)
        comm.allreduce([np.zeros(1)] * 2)
        # Rank 1 waited ~10 s for rank 0.
        assert comm.transport.comm_time[1] > 9.9
        assert comm.transport.comm_time[0] < 1.0

    def test_compute_attribution(self):
        comm = ProcessGroup.sim(2)
        comm.advance_compute(0, 2.5)
        assert comm.transport.compute_time[0] == 2.5
        assert comm.transport.compute_time[1] == 0.0

    def test_now_is_max_clock(self):
        comm = ProcessGroup.sim(2)
        comm.advance_compute(1, 7.0)
        assert comm.now == 7.0

    def test_breakdown_keys(self):
        comm = ProcessGroup.sim(2)
        b = comm.elapsed_breakdown()
        assert set(b) == {"compute", "comm", "wall"}


class TestDataPlane:
    def test_fetch_advances_both_endpoints(self):
        comm = ProcessGroup.sim(4)
        comm.transport.p2p(0, 3, 10**8, "data")
        assert comm.transport.clocks[0].now == comm.transport.clocks[3].now > 0
        assert comm.transport.clocks[1].now == 0.0

    def test_fetch_self_is_free(self):
        comm = ProcessGroup.sim(2)
        comm.transport.p2p(1, 1, 10**9, "data")
        assert comm.now == 0.0
        assert comm.stats.total_bytes() == 0

    def test_fetch_all_contended(self):
        comm = ProcessGroup.sim(8)
        comm.fetch_all(100e9, messages_per_rank=1)
        expected = comm.transport.cost.contended_fetch_time(100e9, 1)
        assert comm.now == pytest.approx(expected)

    def test_byte_accounting_by_category(self):
        comm = ProcessGroup.sim(2)
        comm.allreduce([np.zeros(100)] * 2, category="gradient")
        comm.transport.p2p(0, 1, 500, "data")
        assert comm.stats.bytes_by_category["gradient"] == 800
        assert comm.stats.bytes_by_category["data"] == 500
        assert comm.stats.ops == 2

    def test_broadcast(self):
        comm = ProcessGroup.sim(4)
        out = comm.broadcast(np.arange(5), root=2)
        assert len(out) == 4
        for o in out:
            np.testing.assert_array_equal(o, np.arange(5))

    def test_allgather(self):
        comm = ProcessGroup.sim(3)
        arrays = [np.full(2, r) for r in range(3)]
        out = comm.allgather(arrays)
        assert len(out) == 3 and len(out[0]) == 3
        np.testing.assert_array_equal(out[1][2], [2, 2])

    def test_barrier_synchronizes(self):
        comm = ProcessGroup.sim(2)
        comm.advance_compute(0, 3.0)
        comm.barrier()
        assert comm.transport.clocks[1].now >= 3.0

    def test_invalid_rank(self):
        comm = ProcessGroup.sim(2)
        with pytest.raises(CommunicatorError):
            comm.transport.p2p(0, 5, 100, "data")
        with pytest.raises(CommunicatorError):
            comm.advance_compute(-1, 1.0)

    def test_mismatched_cost_model_rejected(self):
        cm = CommCostModel(ClusterTopology(4))
        with pytest.raises(CommunicatorError):
            ProcessGroup.sim(8, cm)


class TestGradientAveragingEquivalence:
    """DDP invariant: allreduce(mean) of per-rank grads equals the grad of
    the concatenated global batch."""

    def test_mean_of_microbatch_grads(self):
        rng = np.random.default_rng(0)
        # Per-rank gradients of a linear model on disjoint microbatches.
        world = 4
        grads = [rng.standard_normal(10) for _ in range(world)]
        comm = ProcessGroup.sim(world)
        reduced = comm.allreduce(grads, op="mean")[0]
        np.testing.assert_allclose(reduced, np.mean(grads, axis=0), rtol=1e-12)
