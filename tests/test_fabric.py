"""Tests for ``repro.runtime.fabric`` — the real-parallelism transport.

Three layers, bottom up:

- **Shared memory**: the array pool the zero-copy data plane is built on.
- **Fork fabric**: ranks really run in separate interpreters (distinct
  PIDs), results of any size come home bitwise over each rank's pipe,
  errors surface lowest rank first, hard child deaths become
  ``RankFailure``, failed steps leak no file descriptors, and the
  zero-copy data plane delivers gradients home.
- **Equivalence**: collectives and fixed-seed ``DDPTrainer`` curves are
  bitwise identical across sim / inline / forked ranks, faults
  compose (a crashed forked rank recovers to the fault-free curve), and
  checkpoints resume across a transport swap onto a forked fabric.
"""

import gc
import os
import signal
import threading

import numpy as np
import pytest

from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import ProcessGroup, ProcessTransport
from repro.runtime.fabric import SharedArrayPool
from repro.runtime.faults import RankFailure
from repro.training import DDPStrategy, DDPTrainer
from repro.utils.errors import CommunicatorError


# ---------------------------------------------------------------------------
# Shared memory data plane
# ---------------------------------------------------------------------------
class TestSharedMemory:
    def test_pool_copies_and_shares(self):
        src = [np.arange(6, dtype=np.float64),
               np.ones((2, 3), dtype=np.float32)]
        pool = SharedArrayPool(src)
        try:
            for a, b in zip(src, pool.arrays):
                np.testing.assert_array_equal(a, b)
                assert a.dtype == b.dtype
            pool.arrays[0][:] = 7.0  # pool is a copy, not an alias
            assert src[0][0] == 0.0
        finally:
            pool.destroy()


# ---------------------------------------------------------------------------
# Fork fabric: real child interpreters
# ---------------------------------------------------------------------------
@pytest.fixture(params=["process"])  # the one fork fabric; ids stay [process]
def fabric():
    made = []

    def make(world, **kw):
        t = ProcessTransport(world, **kw)
        made.append(t)
        return t

    yield make
    for t in made:
        t.shutdown()


class TestForkFabric:
    def test_ranks_run_in_distinct_interpreters(self, fabric):
        t = fabric(3)
        pids = t.run_ranks(lambda rank: (rank, os.getpid()))
        assert [r for r, _ in pids] == [0, 1, 2]
        assert os.getpid() not in {p for _, p in pids}
        assert len({p for _, p in pids}) == 3

    def test_sequential_mode_stays_inline(self):
        t = ProcessTransport(2, parallel=False)
        pids = t.run_ranks(lambda rank: os.getpid())
        assert pids == [os.getpid()] * 2

    def test_lowest_rank_exception_wins(self, fabric):
        t = fabric(3)

        def fn(rank):
            if rank >= 1:
                raise ValueError(f"rank {rank} broke")
            return rank

        with pytest.raises(ValueError, match="rank 1 broke"):
            t.run_ranks(fn)

    def test_unpicklable_result_reports_not_hangs(self, fabric):
        t = fabric(2)
        with pytest.raises(CommunicatorError,
                           match="rank 0 returned an unpicklable result"):
            t.run_ranks(lambda rank: threading.Lock())

    def test_unpicklable_exception_names_the_rank(self, fabric):
        t = fabric(2)

        def fn(rank):
            raise RuntimeError("holds a lock", threading.Lock())

        with pytest.raises(CommunicatorError,
                           match="rank 0 raised unpicklable RuntimeError"):
            t.run_ranks(fn)

    def test_results_larger_than_the_pipe_buffer_arrive_bitwise(self, fabric):
        """2 MiB per rank: far past the OS pipe buffer, so the driver
        must read while each child is still writing."""
        t = fabric(2)

        def big(rank):
            return np.random.default_rng(rank).standard_normal(1 << 18)

        out = t.run_ranks(big)
        for rank in range(2):
            assert out[rank].nbytes == 2 << 20
            assert out[rank].tobytes() == big(rank).tobytes()

    def test_hard_child_death_raises_rank_failure(self, fabric):
        t = fabric(2)
        t.begin_step(5)

        def fn(rank):
            if rank == 1:
                os._exit(42)  # nothing sent, no exception — just gone
            return rank

        with pytest.raises(RankFailure) as e:
            t.run_ranks(fn)
        assert e.value.rank == 1 and e.value.step == 5

    def test_killed_child_raises_rank_failure(self, fabric):
        t = fabric(2)
        t.begin_step(7)

        def fn(rank):
            if rank == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return rank

        with pytest.raises(RankFailure) as e:
            t.run_ranks(fn)
        assert e.value.rank == 0 and e.value.step == 7

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_failed_steps_leak_no_file_descriptors(self, fabric):
        """Every child's pipe and process sentinel is closed when its
        step ends, not when the cyclic GC gets to the traceback."""
        t = fabric(2)

        def crash(rank):
            if rank == 1:
                os._exit(42)

        def boom(rank):
            raise ValueError(f"rank {rank} broke")

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        t.run_ranks(lambda rank: rank)  # warm up lazily opened fds
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = open_fds()
            steps = [(crash, RankFailure)] * 10 + [(boom, ValueError)] * 10
            for fn, exc in steps:
                with pytest.raises(exc):
                    t.run_ranks(fn)
            assert open_fds() == before
        finally:
            if was_enabled:
                gc.enable()

    def test_process_shared_buffers_visible_to_parent(self):
        t = ProcessTransport(2)
        try:
            bufs = [t.attach_rank_buffers(r, [np.zeros(4)]) for r in range(2)]

            def fn(rank):
                bufs[rank][0][:] = rank + 1.0

            t.run_ranks(fn)
            np.testing.assert_array_equal(bufs[0][0], np.full(4, 1.0))
            np.testing.assert_array_equal(bufs[1][0], np.full(4, 2.0))
        finally:
            t.shutdown()

    def test_world_size_validated(self, fabric):
        t = fabric(2)
        with pytest.raises(CommunicatorError):
            t.advance_compute(2, 0.1)


# ---------------------------------------------------------------------------
# Equivalence across every fabric
# ---------------------------------------------------------------------------
class TestCollectiveEquivalence:
    @pytest.mark.parametrize("world", [2, 3, 4])
    def test_allreduce_mean_matches_everywhere(self, world):
        """Small worlds: process == sim == NumPy mean, bitwise
        (collectives are centralized, so fabrics cannot diverge)."""
        rng = np.random.default_rng(world)
        tensors = [rng.standard_normal(17) for _ in range(world)]
        reference = np.stack(tensors).mean(axis=0)
        sim = ProcessGroup.sim(world).allreduce(tensors, op="mean")
        proc_pg = ProcessGroup.processes(world)
        try:
            proc = proc_pg.allreduce(tensors, op="mean")
        finally:
            proc_pg.transport.shutdown()
        for r in range(world):
            np.testing.assert_array_equal(proc[r], reference)
            assert proc[r].tobytes() == sim[r].tobytes()


@pytest.fixture(scope="module")
def tiny_setup():
    ds = load_dataset("pems-bay", nodes=8, entries=220, seed=3)
    idx = IndexDataset.from_dataset(ds, horizon=4)
    supports = dual_random_walk_supports(ds.graph.weights)
    return idx, supports


def _fit_fabric(idx, supports, strategy, pg, *, epochs=2):
    model = PGTDCRNN(supports, horizon=4, in_features=2, hidden_dim=8,
                     seed=0)
    tr = DDPTrainer(model, Adam(model.parameters(), lr=0.01), pg,
                    IndexBatchLoader(idx, "train", 8),
                    strategy=strategy, scaler=idx.scaler, seed=0)
    hist = tr.fit(epochs)
    shutdown = getattr(pg.transport, "shutdown", None)
    if shutdown is not None:
        shutdown()
    return tr, [h.train_loss for h in hist]


#: First two epochs of the pinned pre-refactor sim curves from
#: ``tests/test_runtime.py`` (world 4, pems-bay nodes=8 entries=220
#: seed=3, PGT-DCRNN hidden 8, Adam lr 0.01, batch 8) — the forked
#: fabrics must land on the same bits.
PINNED_2EP = {
    DDPStrategy.BASELINE_DDP: [0.5620473884046078, 0.42489857971668243],
    DDPStrategy.DIST_INDEX: [0.5620473884046078, 0.42489857971668243],
    DDPStrategy.GENERALIZED_INDEX: [0.567205285653472, 0.4361720886081457],
}


class TestTrainingEquivalence:
    @pytest.mark.parametrize("strategy", list(DDPStrategy))
    def test_process_matches_sim_and_pinned_bits(self, tiny_setup, strategy):
        idx, supports = tiny_setup
        _, sim = _fit_fabric(idx, supports, strategy, ProcessGroup.sim(4))
        _, proc = _fit_fabric(idx, supports, strategy,
                              ProcessGroup.processes(4))
        assert proc == sim == PINNED_2EP[strategy]

    def test_resume_swaps_onto_process_fabric(self, tiny_setup, tmp_path):
        """A sim-checkpointed run resumes on forked ranks bitwise."""
        idx, supports = tiny_setup

        def make(pg, ckpt=None):
            model = PGTDCRNN(supports, horizon=4, in_features=2,
                             hidden_dim=8, seed=0)
            return DDPTrainer(model, Adam(model.parameters(), lr=0.01), pg,
                              IndexBatchLoader(idx, "train", 8),
                              strategy=DDPStrategy.DIST_INDEX,
                              scaler=idx.scaler, seed=0,
                              checkpoint_every=1 if ckpt else None,
                              checkpoint_path=ckpt)

        reference = [h.train_loss for h in make(ProcessGroup.sim(2)).fit(2)]
        ckpt = str(tmp_path / "swap.npz")
        make(ProcessGroup.sim(2), ckpt).fit(1)
        resumed = make(ProcessGroup.processes(2), ckpt)
        resumed.resume(ckpt)
        curve = [h.train_loss for h in resumed.fit(2)]
        resumed.comm.transport.shutdown()
        assert curve == reference

    def test_rank_crash_on_process_fabric_recovers_bitwise(self):
        """FaultyTransport composes: a forked rank dying mid-step drives
        the checkpoint/restart path to the fault-free curve."""
        from repro.api import RunSpec, run

        base = RunSpec(dataset="pems-bay", scale="tiny", seed=1,
                       strategy="dist-index", world_size=2, epochs=2)
        clean = run(base)
        faulty = run(base.replace(transport="process",
                                  faults=("rank_crash:step=3,rank=1",)))
        assert faulty.restarts == 1
        assert faulty.train_curve == clean.train_curve
