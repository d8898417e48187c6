"""Micro-benchmarks of the mechanisms behind the headline results.

Not a paper artifact per se, but these measure the primitives whose costs
the paper's design exploits: zero-copy snapshot construction, batch
gathering, sparse diffusion propagation, and gradient all-reduce.
"""

import numpy as np
import pytest

from repro.autograd.sparse_kernels import stacked_csr
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports, random_sensor_network
from repro.preprocessing import IndexDataset, standard_preprocess
from repro.runtime import ProcessGroup


@pytest.fixture(scope="module")
def index_ds():
    ds = load_dataset("pems-bay", nodes=64, entries=3000, seed=0)
    return IndexDataset.from_dataset(ds)


def test_snapshot_view_construction(benchmark, index_ds):
    """Index-batching's core primitive: O(1) zero-copy window views."""
    out = benchmark(index_ds.snapshot, 100)
    assert out[0].base is index_ds.data


def test_batch_gather(benchmark, index_ds):
    """Runtime batch assembly (the only copying step in index-batching)."""
    starts = index_ds.split_starts("train")[:64]
    x, y = benchmark(index_ds.gather, starts)
    assert x.shape[0] == 64


def test_standard_preprocess_small(benchmark):
    """The whole Algorithm-1 pipeline on a small dataset, for reference."""
    ds = load_dataset("pems-bay", nodes=24, entries=1000, seed=1)
    pre = benchmark(standard_preprocess, ds)
    assert pre.x_train.shape[0] > 0


def test_index_preprocess_small(benchmark):
    """Index-batching preprocessing of the same dataset (no window stacks)."""
    ds = load_dataset("pems-bay", nodes=24, entries=1000, seed=1)
    idx = benchmark(IndexDataset.from_dataset, ds)
    assert idx.num_snapshots > 0


def test_sparse_diffusion_propagation(benchmark):
    """One diffusion hop over a 512-sensor graph, batch of 32: the
    node-major ``[512, 32*64]`` CSR product the diffusion convs run."""
    g = random_sensor_network(512, seed=2)
    support = dual_random_walk_supports(g.weights)[0]
    op = stacked_csr([support], np.dtype(np.float32))[0]
    x = np.random.default_rng(0).standard_normal(
        (512, 32 * 64)).astype(np.float32)
    out = np.empty_like(x)
    benchmark(op.matmul_out, x, out)
    np.testing.assert_allclose(out, support @ x, rtol=1e-4, atol=1e-5)


def test_gradient_allreduce(benchmark):
    """Ring all-reduce of a PGT-DCRNN-sized gradient across 8 ranks."""
    comm = ProcessGroup.sim(8)
    grads = [np.random.default_rng(r).standard_normal(63_617).astype(
        np.float32) for r in range(8)]

    def reduce():
        return comm.allreduce(grads, op="mean")

    out = benchmark(reduce)
    np.testing.assert_allclose(out[0], np.mean(grads, axis=0), rtol=1e-5)
