"""Pluggable rank-execution and communication fabrics (the transport layer).

A :class:`Transport` answers two questions for the layers above it:

1. **Where do ranks run?**  :meth:`Transport.run_ranks` executes one
   callable per rank — sequentially on the driver thread
   (:class:`SimTransport`), or in one forked child per rank
   (:class:`~repro.runtime.fabric.ProcessTransport`).
2. **What does communication cost?**  Collectives and data-plane
   fetches are *charged* through :meth:`Transport.collective` /
   :meth:`Transport.contended_fetch`: :class:`SimTransport` prices them
   with the :mod:`repro.cluster` alpha-beta cost models on per-rank
   :class:`~repro.utils.clock.ManualClock`\\ s, while
   ``ProcessTransport`` records measured wall seconds.

The numeric *data movement* of a collective lives one layer up, in
:mod:`repro.runtime.collectives`, implemented once against this protocol;
the :class:`~repro.runtime.process_group.ProcessGroup` facade binds the
two together for trainers and serving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.cluster.costmodel import CommCostModel
from repro.cluster.topology import ClusterTopology
from repro.utils.clock import ManualClock
from repro.utils.errors import CommunicatorError

#: Collective kinds a transport knows how to price.
COLLECTIVE_KINDS = ("allreduce", "broadcast")


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

    Every rank computes on the trainer's one model, so :meth:`run_ranks`
    runs ranks one after another or in separate address spaces (forked),
    never concurrently in one.

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
        if kind == "broadcast":
            return self.cost.broadcast_time(nbytes)
        raise CommunicatorError(f"unknown collective kind {kind!r}")

    def collective(self, kind: str, nbytes: int, category: str, *,
                   record_bytes: int | None = None, repeat: int = 1,
                   measured_seconds: float = 0.0) -> None:
        seconds = self.collective_seconds(kind, nbytes)
        recorded = nbytes if record_bytes is None else record_bytes
        self._sync_all(seconds * repeat, recorded * repeat, category, repeat)

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
