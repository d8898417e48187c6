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

    def test_sum(self):
        comm = ProcessGroup.sim(3)
        arrays = [np.array([1.0, -2.0]) * (r + 1) for r in range(3)]
        np.testing.assert_allclose(comm.allreduce(arrays, op="sum")[0],
                                   [6.0, -12.0])

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

    @pytest.mark.parametrize("op", ["prod", "max"])
    def test_unsupported_op(self, op):
        comm = ProcessGroup.sim(2)
        with pytest.raises(CommunicatorError, match="unsupported op"):
            comm.allreduce([np.zeros(2)] * 2, op=op)


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
    def test_fetch_all_contended(self):
        comm = ProcessGroup.sim(8)
        comm.fetch_all(100e9, messages_per_rank=1)
        expected = comm.transport.cost.contended_fetch_time(100e9, 1)
        assert comm.now == pytest.approx(expected)

    def test_byte_accounting_by_category(self):
        comm = ProcessGroup.sim(2)
        comm.allreduce([np.zeros(100)] * 2, category="gradient")
        comm.fetch_all(500, messages_per_rank=1)
        assert comm.stats.bytes_by_category["gradient"] == 800
        assert comm.stats.bytes_by_category["data"] == 500
        assert comm.stats.ops == 2

    def test_invalid_rank(self):
        comm = ProcessGroup.sim(2)
        for rank in (-1, 2):
            with pytest.raises(CommunicatorError, match="out of range"):
                comm.advance_compute(rank, 1.0)

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
