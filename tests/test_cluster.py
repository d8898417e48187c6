"""Unit tests for cluster topology and cost models."""

import numpy as np
import pytest

from repro.cluster import ClusterTopology, CommCostModel, PFSModel


class TestTopology:
    def test_paper_gpu_to_node_mapping(self):
        # 4, 8, 16, 32, 64, 128 GPUs -> 1, 2, 4, 8, 16, 32 Polaris nodes.
        for gpus, nodes in [(4, 1), (8, 2), (16, 4), (32, 8), (64, 16),
                            (128, 32)]:
            assert ClusterTopology(gpus).num_nodes == nodes

    def test_spans_nodes(self):
        assert not ClusterTopology(4).spans_nodes()
        assert ClusterTopology(5).spans_nodes()

    def test_world_size_positive(self):
        with pytest.raises(ValueError):
            ClusterTopology(0)


class TestCommCostModel:
    def _model(self, world):
        return CommCostModel(ClusterTopology(world))

    def test_allreduce_ring_formula(self):
        m = self._model(8)
        p, n = 8, 10**6
        expected = 2 * (p - 1) * m.alpha + 2 * (p - 1) / p * n / m.beta_inter
        assert m.allreduce_time(n) == pytest.approx(expected)

    def test_allreduce_intranode_uses_nvlink(self):
        intra = self._model(4).allreduce_time(10**8)
        inter = self._model(8).allreduce_time(10**8)
        assert intra < inter

    def test_allreduce_latency_grows_with_world(self):
        small = self._model(8).allreduce_time(1024)
        large = self._model(128).allreduce_time(1024)
        assert large > small

    @pytest.mark.parametrize("kind", ["allreduce", "broadcast"])
    @pytest.mark.parametrize("world, nbytes", [(1, 10**6), (8, 0)],
                             ids=["one-rank", "no-bytes"])
    def test_trivial_collectives_are_free(self, kind, world, nbytes):
        """Nothing to move, or nobody to move it to: no latency is
        charged either."""
        assert getattr(self._model(world), f"{kind}_time")(nbytes) == 0.0

    def test_broadcast_log_rounds(self):
        m = self._model(16)
        n = 10**6
        expected = 4 * (m.alpha + n / m.beta_inter)
        assert m.broadcast_time(n) == pytest.approx(expected)

    def test_contended_fetch_shares_fabric(self):
        m = self._model(8)
        t = m.contended_fetch_time(100e9)
        assert t == pytest.approx(100e9 / m.fabric_aggregate_bw, rel=0.01)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            self._model(4).contended_fetch_time(-5)


class TestPFSModel:
    def test_deterministic_in_seed(self):
        pfs = PFSModel()
        a = pfs.read_time(10**9, seed=1)
        b = pfs.read_time(10**9, seed=1)
        assert a == b

    def test_jitter_spreads_times(self):
        pfs = PFSModel()
        times = [pfs.read_time(10**10, seed=i) for i in range(40)]
        assert max(times) > 1.3 * min(times)  # real I/O variance

    def test_jitter_bounded(self):
        pfs = PFSModel(read_bw=1e9, jitter=0.5)
        base = 1e9 / 1e9
        for i in range(40):
            t = pfs.read_time(10**9, seed=i)
            assert 0.5 * base <= t <= 1.5 * base + 1e-9

    def test_parallel_readers_mild_contention(self):
        pfs = PFSModel(jitter=0.0)
        t1 = pfs.read_time(10**9, parallel_readers=1)
        t128 = pfs.read_time(10**9, parallel_readers=128)
        assert t1 < t128 < 3 * t1

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            PFSModel().read_time(-1)
