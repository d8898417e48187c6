"""Tests for ``repro.runtime.fabric`` — the real-parallelism transports.

Three layers, bottom up:

- **Framing / shared memory**: bitwise ndarray round-trips through the
  wire format (hypothesis property over arbitrary dtypes and shapes),
  length-prefixed frame reassembly from arbitrary chunkings, and the
  shared-memory ring + array pool the process fabric is built on.
- **Fork fabric**: ranks really run in separate interpreters (distinct
  PIDs), errors and hard child deaths propagate with the same semantics
  as the thread fabric, and the zero-copy data plane delivers gradients
  home.
- **Equivalence**: collectives and fixed-seed ``DDPTrainer`` curves are
  bitwise identical across sim / thread / process, faults
  compose (a crashed forked rank recovers to the fault-free curve), and
  checkpoints resume across a transport swap onto a forked fabric.
"""

import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import ProcessGroup, ProcessTransport
from repro.runtime.fabric import SharedArrayPool, ShmRing, framing
from repro.runtime.fabric.framing import FrameAssembler, FrameError
from repro.runtime.faults import RankFailure
from repro.training import DDPStrategy, DDPTrainer
from repro.utils.errors import CommunicatorError


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------
_DTYPES = ["float32", "float64", "int32", "int64", "uint8", "bool",
           "float16", "complex64"]


@st.composite
def arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=0, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    raw = rng.standard_normal(shape) * 100
    if dtype.kind == "c":
        return (raw + 1j * rng.standard_normal(shape)).astype(dtype)
    return raw.astype(dtype)


class TestFraming:
    @settings(max_examples=60, deadline=None)
    @given(arr=arrays())
    def test_ndarray_roundtrip_is_bitwise(self, arr):
        """Property: encode → decode preserves dtype, shape and bits for
        arbitrary payloads (including empty and zero-dim arrays)."""
        kind, out = framing.decode(framing.encode_ndarray(arr))
        assert kind == framing.KIND_NDARRAY
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert out.tobytes() == arr.tobytes()

    def test_non_contiguous_input_roundtrips(self):
        arr = np.arange(24.0).reshape(4, 6)[::2, ::3]
        _, out = framing.decode(framing.encode_ndarray(arr))
        np.testing.assert_array_equal(out, arr)

    def test_object_roundtrip(self):
        payload = ("ok", 0.25, {"rank": 3, "curve": [1.0, 0.5]})
        kind, out = framing.decode(framing.encode_object(payload))
        assert kind == framing.KIND_OBJECT and out == payload

    def test_decoded_array_owns_its_bits(self):
        frame = bytearray(framing.encode_ndarray(np.zeros(4)))
        _, out = framing.decode(bytes(frame))
        frame[-8:] = b"\xff" * 8  # mutating the wire bytes
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_bad_magic_and_truncation_rejected(self):
        good = framing.encode_ndarray(np.ones(3))
        with pytest.raises(FrameError):
            framing.decode(b"XXXX" + good[4:])
        with pytest.raises(FrameError):
            framing.decode(good[:-1])  # payload shorter than header claims
        with pytest.raises(FrameError):
            framing.decode(good[:3])

    @settings(max_examples=40, deadline=None)
    @given(frames=st.lists(arrays(), min_size=1, max_size=5),
           cut_seed=st.integers(0, 2**16))
    def test_assembler_recovers_frames_from_any_chunking(self, frames,
                                                         cut_seed):
        """Property: the length-prefixed stream reassembles to the exact
        frame sequence no matter where the transport chunks it."""
        encoded = [framing.encode_ndarray(a) for a in frames]
        stream = b"".join(framing.prefixed(f) for f in encoded)
        rng = np.random.default_rng(cut_seed)
        cuts = sorted(rng.integers(0, len(stream) + 1, size=4))
        pieces = [stream[a:b] for a, b in
                  zip([0, *cuts], [*cuts, len(stream)])]
        asm = FrameAssembler()
        got = [f for piece in pieces for f in asm.feed(piece)]
        assert got == encoded
        assert asm.pending_bytes == 0


# ---------------------------------------------------------------------------
# Shared memory primitives
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

    def test_ring_roundtrips_frames_in_order(self):
        ring = ShmRing(capacity=1 << 12)
        try:
            sent = [framing.encode_object(i) for i in range(5)]
            for f in sent:
                ring.write_frame(f)
            assert ring.drain() == sent
            assert ring.drain() == []
            ring.close_writer()
            assert ring.closed
        finally:
            ring.destroy()

    def test_frame_larger_than_capacity_flows_past_a_draining_reader(self):
        """The ring never requires a frame to fit: a concurrent drain
        lets an oversized frame stream through in capacity-sized gulps."""
        ring = ShmRing(capacity=1 << 10)
        big = framing.encode_ndarray(np.arange(4096, dtype=np.float64))
        assert len(big) > (1 << 10)
        got = []

        def reader():
            deadline = time.monotonic() + 30
            while not got and time.monotonic() < deadline:
                got.extend(ring.drain())

        t = threading.Thread(target=reader)
        t.start()
        try:
            ring.write_frame(big)  # blocks until the reader frees space
            t.join(30)
            assert not t.is_alive()
            assert got == [big]
        finally:
            ring.destroy()


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
        with pytest.raises(CommunicatorError):
            t.run_ranks(lambda rank: threading.Lock())

    def test_hard_child_death_raises_rank_failure(self, fabric):
        t = fabric(2)
        t.begin_step(5)

        def fn(rank):
            if rank == 1:
                os._exit(42)  # no frame, no exception — just gone
            return rank

        with pytest.raises(RankFailure) as e:
            t.run_ranks(fn)
        assert e.value.rank == 1 and e.value.step == 5

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

    def test_fabrics_report_isolated_ranks(self, fabric):
        assert fabric(2).isolated_ranks

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


class TestShardedServingOnFabric:
    def test_sharded_predictions_match_inline(self):
        from repro.api import RunSpec, run
        from repro.serving import ShardedSession

        trained = run(RunSpec(dataset="pems-bay", scale="tiny", seed=1,
                              epochs=1))
        ds = trained.artifacts.dataset
        scaler = trained.artifacts.loaders.scaler

        def session(comm=None):
            return ShardedSession(trained.artifacts.model, scaler, ds.graph,
                                  num_shards=2, spec=trained.spec, comm=comm)

        ref = session()
        rng = np.random.default_rng(0)
        batch = rng.standard_normal(
            (3, ref.horizon, ds.num_nodes, ref.in_features)
        ).astype(np.float32)
        inline = ref.predict(batch).copy()
        pg = ProcessGroup.processes(2)
        fabric = session(comm=pg)
        out = fabric.predict(batch)
        pg.transport.shutdown()
        np.testing.assert_array_equal(out, inline)
