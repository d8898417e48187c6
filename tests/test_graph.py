"""Unit tests for graph construction, supports and partitioning."""

import inspect
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import CATALOG
from repro.graph import (
    SensorGraph,
    dual_random_walk_supports,
    partition_graph,
    random_sensor_network,
    random_walk_matrix,
    symmetric_normalized_adjacency,
)
from repro.graph.adjacency import pairwise_distances
from repro.graph.partition import edge_cut
from repro.utils.errors import ShapeError


class TestAdjacency:
    def test_pairwise_distances_symmetric_zero_diag(self):
        coords = np.random.default_rng(0).random((10, 2))
        d = pairwise_distances(coords)
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_allclose(np.diag(d), 0.0)

    def test_sensor_graph_shape_check(self):
        with pytest.raises(ShapeError):
            SensorGraph(coords=np.zeros((5, 2)),
                        weights=sp.eye(4, format="csr"))


class TestRandomSensorNetwork:
    def test_deterministic_in_seed(self):
        a = random_sensor_network(50, seed=9)
        b = random_sensor_network(50, seed=9)
        np.testing.assert_array_equal(a.coords, b.coords)
        assert (a.weights != b.weights).nnz == 0

    def test_different_seeds_differ(self):
        a = random_sensor_network(50, seed=1)
        b = random_sensor_network(50, seed=2)
        assert not np.array_equal(a.coords, b.coords)

    def test_kernel_weights_are_thresholded(self):
        """The thresholded Gaussian kernel: every off-diagonal weight is
        either dropped or at least ``threshold``, and the diagonal is 1."""
        dense = random_sensor_network(60, seed=3, threshold=0.5).weights.toarray()
        off = dense[~np.eye(60, dtype=bool)]
        assert np.all((off == 0) | (off >= 0.5))
        np.testing.assert_allclose(np.diag(dense), 1.0)

    def test_size_and_sparsity(self):
        g = random_sensor_network(200, seed=0)
        assert g.num_nodes == 200
        assert 0 < g.density() < 0.3  # sparse, corridor-like

    def test_min_nodes(self):
        with pytest.raises(ValueError):
            random_sensor_network(1)

    @pytest.mark.parametrize("n", [10, 64, 150])
    def test_every_node_connected(self, n):
        g = random_sensor_network(n, seed=4)
        deg = np.asarray(g.weights.sum(axis=1)).ravel()
        assert np.all(deg > 0)


class TestSupports:
    def _graph(self, n=30):
        return random_sensor_network(n, seed=5).weights

    def test_random_walk_rows_sum_to_one(self):
        P = random_walk_matrix(self._graph())
        np.testing.assert_allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0,
                                   rtol=1e-9)

    def test_random_walk_zero_degree_row(self):
        w = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
        P = random_walk_matrix(w)
        np.testing.assert_allclose(P.toarray()[1], 0.0)

    def test_dual_supports_are_forward_and_backward(self):
        w = self._graph()
        fwd, bwd = dual_random_walk_supports(w)
        np.testing.assert_allclose(np.asarray(fwd.sum(axis=1)).ravel(), 1.0,
                                   rtol=1e-9)
        np.testing.assert_allclose(np.asarray(bwd.sum(axis=1)).ravel(), 1.0,
                                   rtol=1e-9)
        # Backward support is the row-normalised transpose.
        expected = random_walk_matrix(w.T.tocsr())
        assert (bwd != expected).nnz == 0

    def test_symmetric_normalized_eigen_range(self):
        A = symmetric_normalized_adjacency(self._graph())
        vals = np.linalg.eigvalsh(A.toarray())
        assert vals.max() <= 1.0 + 1e-8
        assert vals.min() >= -1.0 - 1e-8

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            random_walk_matrix(sp.random(3, 4, format="csr"))


def _partition_hashes() -> list[str]:
    """One hash of the 4-way assignment per catalog graph at tiny scale
    (self-contained: a fresh interpreter runs its source too)."""
    import hashlib

    from repro.api.scales import get_scale
    from repro.datasets import CATALOG, load_dataset
    from repro.graph import partition_graph

    tiny = get_scale("tiny")
    return [hashlib.sha256(partition_graph(
        load_dataset(name, nodes=tiny.nodes, entries=tiny.entries).graph
        .weights, 4).tobytes()).hexdigest() for name in sorted(CATALOG)]


class TestPartition:
    def test_balanced_parts(self):
        g = random_sensor_network(64, seed=6)
        assignment = partition_graph(g.weights, 4)
        counts = np.bincount(assignment, minlength=4)
        assert counts.max() - counts.min() <= 2

    def test_all_parts_used(self):
        g = random_sensor_network(40, seed=7)
        assignment = partition_graph(g.weights, 8)
        assert set(assignment) == set(range(8))

    def test_single_part(self):
        g = random_sensor_network(10, seed=8)
        assert np.all(partition_graph(g.weights, 1) == 0)

    def test_non_power_of_two_rejected(self):
        g = random_sensor_network(10, seed=8)
        with pytest.raises(ValueError):
            partition_graph(g.weights, 3)

    def test_too_many_parts_rejected(self):
        g = random_sensor_network(4, seed=8)
        with pytest.raises(ValueError):
            partition_graph(g.weights, 8)

    def test_edge_cut_less_than_total(self):
        g = random_sensor_network(64, seed=9)
        assignment = partition_graph(g.weights, 2)
        cut = edge_cut(g.weights, assignment)
        assert 0 <= cut < g.weights.nnz

    def test_same_partition_every_call_and_process(self):
        """Three calls here and one in a fresh interpreter agree on every
        catalog graph at the tiny scale (ARPACK's own start vector made
        each call split differently)."""
        done = subprocess.run(
            [sys.executable, "-c", inspect.getsource(_partition_hashes)
             + "print(*_partition_hashes())"], capture_output=True,
            text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert done.returncode == 0, done.stderr
        fresh = done.stdout.split()
        here = [_partition_hashes() for _ in range(3)]
        assert len(fresh) == len(CATALOG)
        assert here == [fresh] * 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        """A ``nan`` edge once gave the index-order split, silently, and
        all-``inf`` weights gave ``[0]*12 + [1]*12``."""
        w = random_sensor_network(24, seed=3).weights.tocsr().copy()
        w.data[0] = bad
        with pytest.raises(ValueError, match="finite"):
            partition_graph(w, 4)
        w.data[:] = bad
        with pytest.raises(ValueError, match="finite"):
            partition_graph(w, 2)

    def test_only_arpack_errors_fall_back(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not an ARPACK failure")

        monkeypatch.setattr(sp.linalg, "eigsh", broken)
        g = random_sensor_network(24, seed=3)
        with pytest.raises(TypeError, match="ARPACK"):
            partition_graph(g.weights, 2)

    def test_arpack_fallback_is_logged(self, monkeypatch, caplog):
        """The index-order fallback used to be silent."""
        def unconverged(*args, **kwargs):
            raise sp.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(sp.linalg, "eigsh", unconverged)
        g = random_sensor_network(24, seed=3)
        with caplog.at_level("WARNING", logger="repro.graph.partition"):
            assignment = partition_graph(g.weights, 2)
        np.testing.assert_array_equal(assignment, np.repeat([0, 1], 12))
        [record] = caplog.records
        assert record.name == "repro.graph.partition"
        assert record.levelname == "WARNING"
        assert "24-node subgraph" in record.getMessage()

    def test_spectral_beats_random_split(self):
        g = random_sensor_network(100, seed=10)
        spectral = edge_cut(g.weights, partition_graph(g.weights, 2))
        rng = np.random.default_rng(0)
        random_cuts = []
        for _ in range(5):
            assign = rng.permutation(np.repeat([0, 1], 50))
            random_cuts.append(edge_cut(g.weights, assign))
        assert spectral < np.mean(random_cuts)
