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
  re-backs each rank's :class:`~repro.runtime.buckets.GradientBucketer`
  flat buffers (or any other per-rank output arrays) on a
  :class:`SharedArrayPool`, so a child rank's ``pack()`` writes land
  directly in memory the driver reduces from — nothing is serialized or
  copied across the process boundary.
- **Control plane**: one one-way :func:`multiprocessing.Pipe` per child.
  The child sends one ``(status, elapsed, payload)`` tuple; the driver
  blocks in :func:`multiprocessing.connection.wait` over the in-flight
  readers.  The driver closes its copy of each write end right after the
  fork, so a child that exits without sending reads as EOF — a
  :class:`~repro.runtime.faults.RankFailure` at the current step.

Collectives stay centralized in the driver, so training curves are
bitwise identical to the sim/thread fabrics, and the fabric composes
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
from repro.runtime.transport import MeasuredTransport, _check_rank
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


class ProcessTransport(MeasuredTransport):
    """Real-process fabric: one forked child per rank per step.

    Every rank owns a whole interpreter (no GIL sharing), so rank steps
    scale with physical cores.  Collectives stay centralized in the
    driver (:mod:`repro.runtime.collectives` reduces in rank order), so
    training curves are bitwise identical to the sim/thread fabrics.

    ``parallel=False`` (or ``run_ranks(..., parallel=False)``) runs
    ranks inline on the driver — the sequential baseline the distributed
    benchmark compares against, bitwise identical because all rank
    *data* movement is centralized either way.
    """

    #: Ranks execute in separate address spaces, so trainers run them
    #: concurrently on the one model: each fork snapshot is a rank's
    #: replica, and no rank can race another through shared state.
    isolated_ranks = True

    def __init__(self, world_size: int, *, parallel: bool = True):
        super().__init__(world_size)
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover — non-POSIX
            raise CommunicatorError(
                "the process fabric needs the fork start method; "
                "this platform does not provide it") from exc
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
            return self._run_inline(fn)

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

    def shutdown(self) -> None:
        """Free the shared-memory pools (idempotent)."""
        _destroy_pools(self._pools)
