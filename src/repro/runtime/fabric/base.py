"""Fork-per-step rank execution, independent of the result channel.

:class:`~repro.runtime.fabric.process.ProcessTransport` executes a step
by **forking one child per rank**, running the rank closure in the
child, and shipping results back to the driver.  Forking per
:meth:`run_ranks` call — rather than keeping persistent workers — is
what makes arbitrary closures work (nothing is pickled to start a rank)
and what makes replicas trivial: the copy-on-write fork snapshot *is*
the per-rank replica, with parameters current by construction, so
checkpoint/resume and transport swaps need no parameter broadcast.

:class:`ForkFabric` owns wave scheduling (at most
:func:`~repro.hardware.usable_cores` children in flight), child-death
detection, and the join-then-raise-lowest-rank semantics that
:class:`~repro.runtime.transport.ThreadTransport` established.
The subclass provides the channel a child reports through.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Callable

import multiprocessing

from repro.hardware.cores import usable_cores
from repro.runtime.faults import RankFailure
from repro.runtime.transport import MeasuredTransport, _check_rank
from repro.utils.errors import CommunicatorError

#: Exit code of a child that died by injected fault (frameless, like a
#: real crash) — any frameless death maps to :class:`RankFailure`, the
#: code just makes post-mortems readable.
CRASH_EXIT_CODE = 13


def run_child(rank: int, fn: Callable[[int], object],  # pragma: no cover
              deliver: Callable[[tuple], None]) -> None:
    # (no cover: executes only inside forked children, which coverage
    # tooling does not trace)
    """Rank-child mainline; never returns (exits the process).

    Runs ``fn(rank)`` and hands ``("ok", elapsed, result)`` or
    ``("err", elapsed, exc)`` to ``deliver``.  A :class:`RankFailure`
    (injected by a composed
    :class:`~repro.runtime.faults.FaultyTransport`) is *not* delivered:
    the child dies frameless, exactly the signature of a real crash, and
    the driver re-raises it from the silence.  Exits via ``os._exit`` so
    the forked interpreter never runs inherited cleanup handlers.
    """
    t0 = time.perf_counter()
    try:
        result = fn(rank)
        try:
            pickle.dumps(result)
        except Exception as exc:
            raise CommunicatorError(
                f"rank {rank} returned an unpicklable result "
                f"({type(result).__name__}): {exc}") from None
        outcome = ("ok", time.perf_counter() - t0, result)
    except RankFailure:
        os._exit(CRASH_EXIT_CODE)
    except BaseException as exc:  # noqa: BLE001 — must cross the boundary
        try:
            pickle.dumps(exc)
        except Exception:
            exc = CommunicatorError(
                f"rank {rank} raised unpicklable "
                f"{type(exc).__name__}: {exc}")
        outcome = ("err", time.perf_counter() - t0, exc)
    try:
        deliver(outcome)
    except BaseException:
        os._exit(CRASH_EXIT_CODE)
    os._exit(0)


class ChildHandle:
    """Driver-side view of one in-flight rank child."""

    def __init__(self, rank: int, proc):
        self.rank = rank
        self.proc = proc
        self.finished = False
        #: ``("ok"|"err", elapsed_seconds, payload)`` once the child
        #: reported; ``None`` if it died without a frame.
        self.outcome: tuple | None = None

    def poll(self) -> None:
        """Drain the channel; mark finished once the child is gone."""
        raise NotImplementedError

    def abandon(self) -> None:
        """Release the channel without reading a result (driver bailing)."""


class ForkFabric(MeasuredTransport):
    """Fork-per-step transport base (see module docstring).

    ``parallel=False`` (or ``run_ranks(..., parallel=False)``) runs
    ranks inline on the driver — the sequential baseline the distributed
    benchmark compares against, bitwise identical because all rank
    *data* movement is centralized either way.
    """

    #: Ranks execute in separate address spaces, so trainers may always
    #: run them concurrently — replicas can't race through shared state.
    isolated_ranks = True

    def __init__(self, world_size: int, *, parallel: bool = True,
                 max_inflight: int | None = None):
        super().__init__(world_size)
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover — non-POSIX
            raise CommunicatorError(
                "the process fabric needs the fork start method; "
                "this platform does not provide it") from exc
        self.parallel = bool(parallel)
        self.max_inflight = int(max_inflight or max(1, usable_cores()))
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._step = 0

    # -- trainer hooks --------------------------------------------------
    def begin_step(self, step: int) -> None:
        """Global step about to execute; attributed to frameless deaths."""
        self._step = int(step)

    def attach_rank_buffers(self, rank: int, buffers: list) -> list:
        """Adopt per-rank output arrays written inside the child.

        Returns replacement arrays the caller must use from now on;
        after :meth:`run_ranks`, child writes to them are visible in the
        driver.  Base implementation is a no-op passthrough.
        """
        _check_rank(self.world_size, rank)
        return list(buffers)

    # -- fabric hooks ---------------------------------------------------
    def _spawn(self, rank: int, fn: Callable[[int], object]) -> ChildHandle:
        raise NotImplementedError

    # -- rank execution -------------------------------------------------
    def run_ranks(self, fn: Callable[[int], object], *,
                  parallel: bool = True) -> list:
        """Run ``fn(rank)`` for every rank; join before returning.

        Results are rank-ordered.  All ranks run to completion (in
        waves of at most ``max_inflight`` forked children) before the
        lowest-rank failure is raised; a child that dies without
        reporting becomes a :class:`RankFailure` at the current step.
        """
        if not (self.parallel and parallel) or self.world_size == 1:
            out = []
            for rank in range(self.world_size):
                t0 = time.perf_counter()
                try:
                    out.append(fn(rank))
                finally:
                    self.compute_time[rank] += time.perf_counter() - t0
            return out

        pending = list(range(self.world_size))
        inflight: dict[int, ChildHandle] = {}
        outcomes: dict[int, tuple | None] = {}
        try:
            while pending or inflight:
                while pending and len(inflight) < self.max_inflight:
                    rank = pending.pop(0)
                    inflight[rank] = self._spawn(rank, fn)
                progressed = False
                for rank, handle in list(inflight.items()):
                    handle.poll()
                    if handle.finished:
                        outcomes[rank] = handle.outcome
                        del inflight[rank]
                        progressed = True
                if inflight and not progressed:
                    time.sleep(0.0005)
        except BaseException:
            for handle in inflight.values():
                if handle.proc.is_alive():
                    handle.proc.terminate()
                handle.proc.join()
                handle.abandon()
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
        """Release fabric resources (idempotent; overridden as needed)."""
