"""Pluggable rank-execution and communication fabrics (the transport layer).

A :class:`Transport` answers two questions for the layers above it:

1. **Where do ranks run?**  :meth:`Transport.run_ranks` executes one
   callable per rank — sequentially on the driver thread
   (:class:`SimTransport`), or on one persistent worker thread per rank
   (:class:`ThreadTransport`; NumPy releases the GIL, so rank steps
   overlap on real cores).
2. **What does communication cost?**  Collectives and point-to-point
   transfers are *charged* through :meth:`Transport.collective` /
   :meth:`Transport.p2p`: :class:`SimTransport` prices them with the
   :mod:`repro.cluster` alpha-beta cost models on per-rank
   :class:`~repro.profiling.clock.ManualClock`\\ s, while
   :class:`ThreadTransport` records measured wall seconds.

The numeric *data movement* of a collective lives one layer up, in
:mod:`repro.runtime.collectives`, implemented once against this protocol;
the :class:`~repro.runtime.process_group.ProcessGroup` facade binds the
two together for trainers and serving.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.cluster.costmodel import CommCostModel
from repro.cluster.topology import ClusterTopology
from repro.profiling.clock import ManualClock
from repro.utils.errors import CommunicatorError

#: Collective kinds a transport knows how to price.
COLLECTIVE_KINDS = ("allreduce", "reduce_scatter", "allgather", "broadcast")


@dataclass
class CommStats:
    """Aggregate traffic accounting, by category."""

    bytes_by_category: dict[str, int] = field(default_factory=dict)
    time_by_category: dict[str, float] = field(default_factory=dict)
    ops: int = 0

    def record(self, category: str, nbytes: int, seconds: float,
               ops: int = 1) -> None:
        self.bytes_by_category[category] = (
            self.bytes_by_category.get(category, 0) + int(nbytes))
        self.time_by_category[category] = (
            self.time_by_category.get(category, 0.0) + float(seconds))
        self.ops += ops

    def total_bytes(self) -> int:
        return sum(self.bytes_by_category.values())

    def total_seconds(self) -> float:
        return sum(self.time_by_category.values())


@runtime_checkable
class Transport(Protocol):
    """What a communication fabric must provide.

    ``repeat`` on the charging methods scales time/bytes/ops by a constant
    in one call (a single float multiply, so charging ``n`` identical ops
    once is bitwise-equal to ``n * per_op_seconds``) — the performance
    model uses it to account a whole epoch without looping over steps.
    """

    world_size: int
    stats: CommStats

    def run_ranks(self, fn: Callable[[int], object], *,
                  parallel: bool = True) -> list: ...

    def advance_compute(self, rank: int, seconds: float) -> None: ...

    def collective(self, kind: str, nbytes: int, category: str, *,
                   record_bytes: int | None = None, repeat: int = 1,
                   measured_seconds: float = 0.0) -> None: ...

    def p2p(self, src: int, dst: int, nbytes: int, category: str, *,
            measured_seconds: float = 0.0) -> None: ...

    def contended_fetch(self, total_bytes: int, messages_per_rank: int,
                        category: str) -> None: ...

    def charge(self, category: str, nbytes: int, seconds: float,
               ops: int = 1) -> None: ...

    @property
    def now(self) -> float: ...

    def elapsed_breakdown(self) -> dict[str, float]: ...


def _check_rank(world_size: int, rank: int) -> None:
    if not 0 <= rank < world_size:
        raise CommunicatorError(
            f"rank {rank} out of range [0, {world_size})")


class SimTransport:
    """Simulated fabric: per-rank clocks + alpha-beta cost models.

    A collective synchronises every participant to ``max(rank clocks) +
    op_time`` (the straggler semantics of a blocking collective), and
    every charge records bytes per traffic category.
    """

    def __init__(self, world_size: int,
                 cost_model: CommCostModel | None = None):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.topology = (cost_model.topology if cost_model is not None
                         else ClusterTopology(world_size))
        if self.topology.world_size != world_size:
            raise CommunicatorError(
                "cost model topology does not match world size")
        self.cost = cost_model or CommCostModel(self.topology)
        self.clocks = [ManualClock() for _ in range(world_size)]
        self.stats = CommStats()
        # Per-rank cumulative time attribution.
        self.compute_time = np.zeros(world_size)
        self.comm_time = np.zeros(world_size)

    # -- rank execution -------------------------------------------------
    def run_ranks(self, fn: Callable[[int], object], *,
                  parallel: bool = True) -> list:
        """Run ``fn(rank)`` for every rank, sequentially in rank order.

        Simulated time is charged explicitly via
        :meth:`advance_compute`, so there is nothing to overlap.
        """
        return [fn(rank) for rank in range(self.world_size)]

    def advance_compute(self, rank: int, seconds: float) -> None:
        """Charge local computation to a rank's clock."""
        _check_rank(self.world_size, rank)
        self.clocks[rank].advance(seconds)
        self.compute_time[rank] += seconds

    # -- charging -------------------------------------------------------
    def _sync_all(self, op_seconds: float, nbytes: int, category: str,
                  ops: int = 1) -> None:
        start = max(c.now for c in self.clocks)
        end = start + op_seconds
        for r, c in enumerate(self.clocks):
            self.comm_time[r] += end - c.now
            c.advance_to(end)
        self.stats.record(category, nbytes, op_seconds, ops)

    def collective_seconds(self, kind: str, nbytes: int) -> float:
        """Price one collective of ``kind`` moving ``nbytes`` per rank."""
        if kind == "allreduce":
            return self.cost.allreduce_time(nbytes)
        if kind == "reduce_scatter":
            return self.cost.reduce_scatter_time(nbytes)
        if kind == "allgather":
            return self.cost.allgather_time(nbytes)
        if kind == "broadcast":
            return self.cost.broadcast_time(nbytes)
        raise CommunicatorError(f"unknown collective kind {kind!r}")

    def collective(self, kind: str, nbytes: int, category: str, *,
                   record_bytes: int | None = None, repeat: int = 1,
                   measured_seconds: float = 0.0) -> None:
        seconds = self.collective_seconds(kind, nbytes)
        recorded = nbytes if record_bytes is None else record_bytes
        self._sync_all(seconds * repeat, recorded * repeat, category, repeat)

    def p2p(self, src: int, dst: int, nbytes: int, category: str, *,
            measured_seconds: float = 0.0) -> None:
        """Point-to-point pull; advances both endpoints' clocks."""
        _check_rank(self.world_size, src)
        _check_rank(self.world_size, dst)
        if src == dst or nbytes == 0:
            return
        dt = self.cost.p2p_time(
            nbytes, same_node=self.topology.same_node(src, dst))
        start = max(self.clocks[src].now, self.clocks[dst].now)
        end = start + dt
        for r in (src, dst):
            self.comm_time[r] += end - self.clocks[r].now
            self.clocks[r].advance_to(end)
        self.stats.record(category, nbytes, dt)

    def contended_fetch(self, total_bytes: int, messages_per_rank: int,
                        category: str) -> None:
        """All ranks fetch concurrently, contending on the shared fabric."""
        if total_bytes == 0:
            return
        dt = self.cost.contended_fetch_time(total_bytes, messages_per_rank)
        self._sync_all(dt, total_bytes, category)

    def charge(self, category: str, nbytes: int, seconds: float,
               ops: int = 1) -> None:
        """Record pre-priced traffic (used by the performance model)."""
        self._sync_all(seconds, nbytes, category, ops)

    # -- observation ----------------------------------------------------
    @property
    def now(self) -> float:
        """Simulated wall time of the slowest rank."""
        return max(c.now for c in self.clocks)

    def elapsed_breakdown(self) -> dict[str, float]:
        """Mean per-rank compute/comm split (the Fig. 7/9 bar segments)."""
        return {
            "compute": float(self.compute_time.mean()),
            "comm": float(self.comm_time.mean()),
            "wall": self.now,
        }


class MeasuredTransport:
    """Shared accounting base for fabrics that run on real hardware.

    The thread and process fabrics both answer the *cost* half of
    the :class:`Transport` protocol the same way: communication is real
    data movement, so collectives/p2p record their bytes and measured
    wall seconds instead of simulated time, and :attr:`now` is the wall
    clock since construction.  Subclasses only decide *where ranks run*
    (:meth:`run_ranks`).
    """

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.stats = CommStats()
        self.compute_time = np.zeros(world_size)
        self.comm_time = np.zeros(world_size)
        self._t0 = time.perf_counter()

    # -- rank execution -------------------------------------------------
    def run_ranks(self, fn: Callable[[int], object], *,
                  parallel: bool = True) -> list:
        raise NotImplementedError

    def advance_compute(self, rank: int, seconds: float) -> None:
        """Simulated-compute charges are meaningless on real fabrics.

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

    def p2p(self, src: int, dst: int, nbytes: int, category: str, *,
            measured_seconds: float = 0.0) -> None:
        _check_rank(self.world_size, src)
        _check_rank(self.world_size, dst)
        if src == dst or nbytes == 0:
            return
        self.stats.record(category, nbytes, measured_seconds)

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


class ThreadTransport(MeasuredTransport):
    """Real-thread fabric: one persistent worker thread per rank.

    :meth:`run_ranks` dispatches each rank's callable to its worker and
    joins them all (barrier semantics).  The heavy NumPy kernels in a
    training step release the GIL, so on a multi-core machine rank steps
    genuinely overlap — the first actually-parallel multi-rank execution
    in this repository.  Communication is shared-memory data movement
    (performed by :mod:`repro.runtime.collectives`); this transport
    records its bytes and measured wall seconds instead of simulated
    time.

    Pass ``parallel=False`` (or call ``run_ranks(..., parallel=False)``)
    to force sequential rank execution — the baseline the distributed
    benchmark compares against.
    """

    def __init__(self, world_size: int, *, parallel: bool = True):
        super().__init__(world_size)
        self.parallel = bool(parallel)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.world_size,
                thread_name_prefix="repro-rank")
        return self._pool

    # -- rank execution -------------------------------------------------
    def run_ranks(self, fn: Callable[[int], object], *,
                  parallel: bool = True) -> list:
        """Run ``fn(rank)`` on every rank; join before returning.

        Results are ordered by rank.  A raising rank propagates its
        exception after all ranks have been joined, so no worker is left
        mid-step.
        """
        def timed(rank: int):
            t0 = time.perf_counter()
            try:
                return fn(rank)
            finally:
                self.compute_time[rank] += time.perf_counter() - t0

        if not (self.parallel and parallel) or self.world_size == 1:
            return [timed(rank) for rank in range(self.world_size)]
        futures = [self._ensure_pool().submit(timed, rank)
                   for rank in range(self.world_size)]
        # Two passes: wait for everything first (the join barrier), then
        # raise the lowest-rank failure with no rank still mid-step.  A
        # failed step also tears the worker pool down — otherwise the
        # rank threads outlive the exception with nobody left to call
        # shutdown(), and an interpreter exit blocks joining them.  The
        # pool is rebuilt lazily, so a recovered trainer can keep using
        # this transport.
        done = [f.exception() for f in futures]
        for exc in done:
            if exc is not None:
                self.shutdown()
                raise exc
        return [f.result() for f in futures]

    def shutdown(self) -> None:
        """Tear down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self):  # best-effort; pools also die with the process
        try:
            self.shutdown()
        except Exception:
            pass
