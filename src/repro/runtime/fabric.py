"""Process fabric: one forked interpreter per rank, shm data plane.

:class:`ProcessTransport` executes a step by **forking one child per
rank**, running the rank closure in the child, and sending the rank's
outcome back to the driver.  Forking per :meth:`~ProcessTransport.run_ranks`
call — rather than keeping persistent workers — is what makes arbitrary
closures work (nothing is pickled to start a rank) and what makes
replicas trivial: the copy-on-write fork snapshot *is* the per-rank
replica, with parameters current by construction, so checkpoint/resume
and transport swaps need no parameter broadcast.

- **Data plane** (zero-copy): :meth:`ProcessTransport.attach_rank_buffers`
  re-backs each rank's flat gradient buffer (or any other per-rank
  output arrays) on a :class:`SharedArrayPool`; the trainer binds the
  rank's parameters to it, so a child rank's backward lands its
  gradients directly in memory the driver reduces from — nothing is
  serialized or copied across the process boundary.
- **Control plane**: one one-way :func:`multiprocessing.Pipe` per child.
  The child sends one ``(status, elapsed, payload)`` tuple; the driver
  blocks in :func:`multiprocessing.connection.wait` over the in-flight
  readers.  The driver closes its copy of each write end right after the
  fork, so a child that exits without sending reads as EOF — a
  :class:`~repro.runtime.faults.RankFailure` at the current step.

Collectives stay centralized in the driver, so training curves are
bitwise identical to the simulated fabric, and the fabric composes
with :class:`~repro.runtime.faults.FaultyTransport` (an injected crash
is a real child death).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from multiprocessing import shared_memory
from multiprocessing.connection import wait
from typing import Callable

import numpy as np

from repro.hardware.cores import usable_cores
from repro.runtime.faults import RankFailure
from repro.runtime.transport import COLLECTIVE_KINDS, CommStats, _check_rank
from repro.utils.errors import CommunicatorError

#: Exit code of a child that died by injected fault (silent, like a
#: real crash) — any silent death maps to :class:`RankFailure`, the
#: code just makes post-mortems readable.
CRASH_EXIT_CODE = 13

_ALIGN = 64  # cache-line align every array slice in a pool


class SharedArrayPool:
    """Re-back a list of ndarrays on one shared-memory block.

    Designed for *fork* children: the child inherits the parent's
    mapping, so no name-based re-attach (or pickling) is needed.  The
    returned views preserve dtype, shape and initial contents; each
    slice is cache-line aligned so concurrent per-rank writers never
    share a line across pool instances.
    """

    def __init__(self, arrays: list[np.ndarray]):
        offsets: list[int] = []
        size = 0
        for arr in arrays:
            size = -(-size // _ALIGN) * _ALIGN  # round up
            offsets.append(size)
            size += int(arr.nbytes)
        self.shm = shared_memory.SharedMemory(create=True, size=max(size, 1))
        self.arrays: list[np.ndarray] = []
        for arr, off in zip(arrays, offsets):
            view = np.ndarray(arr.shape, dtype=arr.dtype,
                              buffer=self.shm.buf, offset=off)
            np.copyto(view, arr)
            self.arrays.append(view)

    def destroy(self) -> None:
        """Free the block, tolerating live numpy views.

        ``unlink`` drops the name (the memory itself dies with the last
        mapping); ``close`` raises ``BufferError`` while views the
        trainer still holds are alive, which is harmless — the mapping
        is reclaimed at process exit.
        """
        self.arrays = []  # release ours so close() has a chance
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
        try:
            self.shm.close()
        except BufferError:
            pass


def _destroy_pools(pools: list) -> None:
    while pools:
        pools.pop().destroy()


def _run_child(rank: int, fn: Callable[[int], object],  # pragma: no cover
               conn) -> None:
    # (no cover: executes only inside forked children, which coverage
    # tooling does not trace)
    """Rank-child mainline; never returns (exits the process).

    Runs ``fn(rank)`` and sends ``("ok", elapsed, result)`` or
    ``("err", elapsed, exc)`` over ``conn``.  ``send`` pickles before it
    writes, so a payload that does not pickle sends nothing and is
    replaced by a :class:`CommunicatorError` naming the rank.  A
    :class:`RankFailure` (injected by a composed
    :class:`~repro.runtime.faults.FaultyTransport`) is *not* sent: the
    child dies silently, exactly the signature of a real crash, and the
    driver re-raises it from the EOF.  Exits via ``os._exit`` so the
    forked interpreter never runs inherited cleanup handlers.
    """
    t0 = time.perf_counter()
    try:
        status, payload = "ok", fn(rank)
    except RankFailure:
        os._exit(CRASH_EXIT_CODE)
    except BaseException as exc:  # noqa: BLE001 — must cross the boundary
        status, payload = "err", exc
    elapsed = time.perf_counter() - t0
    try:
        try:
            conn.send((status, elapsed, payload))
        except Exception as exc:
            name = type(payload).__name__
            what = (f"returned an unpicklable result ({name})"
                    if status == "ok" else f"raised unpicklable {name}")
            conn.send(("err", elapsed,
                       CommunicatorError(f"rank {rank} {what}: {exc}")))
    except BaseException:
        os._exit(CRASH_EXIT_CODE)
    os._exit(0)


class ProcessTransport:
    """Real-process fabric: one forked child per rank per step.

    Every rank owns a whole interpreter (no GIL sharing), so rank steps
    scale with physical cores, and each fork snapshot is that rank's
    replica of the one model: no rank can race another through shared
    state.  Collectives stay centralized in the driver
    (:mod:`repro.runtime.collectives` reduces in rank order), so
    training curves are bitwise identical to the simulated fabric.
    Communication is real data movement: collectives record their bytes
    and measured wall seconds, and :attr:`now` is the wall clock since
    construction.

    ``parallel=False`` (or ``run_ranks(..., parallel=False)``) runs
    ranks inline on the driver — the sequential baseline the distributed
    benchmark compares against, bitwise identical because all rank
    *data* movement is centralized either way.
    """

    def __init__(self, world_size: int, *, parallel: bool = True):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover — non-POSIX
            raise CommunicatorError(
                "the process fabric needs the fork start method; "
                "this platform does not provide it") from exc
        self.world_size = world_size
        self.stats = CommStats()
        self.compute_time = np.zeros(world_size)
        self.comm_time = np.zeros(world_size)
        self._t0 = time.perf_counter()
        self.parallel = bool(parallel)
        self._max_children = usable_cores()
        self._step = 0
        self._pools: list[SharedArrayPool] = []
        # Pools must be unlinked even if nobody calls shutdown() — the
        # finalizer runs at GC or interpreter exit, whichever is first.
        self._finalizer = weakref.finalize(self, _destroy_pools, self._pools)

    # -- trainer hooks --------------------------------------------------
    def begin_step(self, step: int) -> None:
        """Global step about to execute; attributed to silent deaths."""
        self._step = int(step)

    def attach_rank_buffers(self, rank: int, buffers: list) -> list:
        """Re-back per-rank output arrays on shared memory.

        Returns replacement arrays the caller must use from now on.
        They alias one shared block: the forked child inherits the
        mapping and writes through it, so after :meth:`run_ranks` the
        driver reads the child's bytes in place.
        """
        _check_rank(self.world_size, rank)
        pool = SharedArrayPool(list(buffers))
        self._pools.append(pool)
        return list(pool.arrays)

    # -- rank execution -------------------------------------------------
    def _spawn(self, rank: int, fn: Callable[[int], object]):
        reader, writer = self._ctx.Pipe(duplex=False)
        # The fork start method runs the target in the forked interpreter
        # directly — nothing (not even the closure) is pickled.
        proc = self._ctx.Process(target=_run_child, args=(rank, fn, writer),
                                 name=f"repro-rank-{rank}", daemon=True)
        try:
            proc.start()
        except BaseException:
            reader.close()
            raise
        finally:
            writer.close()  # the child's copy is now the only write end
        return reader, proc

    def _timed(self, fn: Callable[[int], object], rank: int):
        """``fn(rank)`` inline, its wall seconds charged to the rank."""
        t0 = time.perf_counter()
        try:
            return fn(rank)
        finally:
            self.compute_time[rank] += time.perf_counter() - t0

    def run_ranks(self, fn: Callable[[int], object], *,
                  parallel: bool = True) -> list:
        """Run ``fn(rank)`` for every rank; join before returning.

        Results are rank-ordered.  All ranks run to completion (in
        waves of at most :func:`~repro.hardware.usable_cores` forked
        children) before the lowest-rank failure is raised; a child that
        dies without reporting becomes a :class:`RankFailure` at the
        current step.
        """
        if not (self.parallel and parallel) or self.world_size == 1:
            return [self._timed(fn, rank) for rank in range(self.world_size)]

        pending = list(range(self.world_size))
        inflight: dict = {}  # reader -> (rank, proc)
        outcomes: dict[int, tuple | None] = {}
        try:
            while pending or inflight:
                while pending and len(inflight) < self._max_children:
                    rank = pending.pop(0)
                    reader, proc = self._spawn(rank, fn)
                    inflight[reader] = (rank, proc)
                for reader in wait(list(inflight)):
                    rank, proc = inflight[reader]
                    try:
                        outcomes[rank] = reader.recv()
                    except (EOFError, OSError):  # died before sending it all
                        outcomes[rank] = None
                    reader.close()
                    proc.join()
                    proc.close()  # its sentinel fd, not left to the GC
                    del inflight[reader]
        except BaseException:
            for reader, (_, proc) in inflight.items():
                reader.close()
                if proc.is_alive():
                    proc.terminate()
                proc.join()
                proc.close()
            raise

        results: list = [None] * self.world_size
        failures: dict[int, BaseException] = {}
        for rank in range(self.world_size):
            outcome = outcomes[rank]
            if outcome is None:
                failures[rank] = RankFailure(rank, self._step)
                continue
            status, elapsed, payload = outcome
            self.compute_time[rank] += float(elapsed)
            if status == "ok":
                results[rank] = payload
            else:
                failures[rank] = payload
        if failures:
            raise failures[min(failures)]
        return results

    def advance_compute(self, rank: int, seconds: float) -> None:
        """Simulated-compute charges are meaningless on a real fabric.

        Accepted (and ignored) so trainers can charge unconditionally;
        measured per-rank time is attributed by :meth:`run_ranks`.
        """
        _check_rank(self.world_size, rank)

    # -- charging -------------------------------------------------------
    def collective(self, kind: str, nbytes: int, category: str, *,
                   record_bytes: int | None = None, repeat: int = 1,
                   measured_seconds: float = 0.0) -> None:
        if kind not in COLLECTIVE_KINDS:
            raise CommunicatorError(f"unknown collective kind {kind!r}")
        recorded = nbytes if record_bytes is None else record_bytes
        self.comm_time += measured_seconds / self.world_size
        self.stats.record(category, recorded * repeat,
                          measured_seconds, repeat)

    def contended_fetch(self, total_bytes: int, messages_per_rank: int,
                        category: str) -> None:
        if total_bytes == 0:
            return
        self.stats.record(category, total_bytes, 0.0)

    def charge(self, category: str, nbytes: int, seconds: float,
               ops: int = 1) -> None:
        self.stats.record(category, nbytes, seconds, ops)

    # -- observation ----------------------------------------------------
    @property
    def now(self) -> float:
        """Measured wall seconds since this transport was created."""
        return time.perf_counter() - self._t0

    def elapsed_breakdown(self) -> dict[str, float]:
        return {
            "compute": float(self.compute_time.mean()),
            "comm": float(self.comm_time.mean()),
            "wall": self.now,
        }

    def shutdown(self) -> None:
        """Free the shared-memory pools (idempotent)."""
        _destroy_pools(self._pools)
