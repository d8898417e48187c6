"""The :class:`ProcessGroup` facade: one distributed-execution handle.

Trainers, the serving shards and the performance model all talk to a
``ProcessGroup`` — collectives, point-to-point fetches, per-rank compute
charging, rank execution, and :class:`~repro.runtime.transport.CommStats`
traffic accounting by category — while the transport behind it decides
whether ranks are simulated (:meth:`ProcessGroup.sim`), real threads
(:meth:`ProcessGroup.threads`) or forked processes on a shared-memory
data plane (:meth:`ProcessGroup.processes`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cluster.costmodel import CommCostModel
from repro.runtime import collectives
from repro.runtime.transport import (
    CommStats,
    SimTransport,
    ThreadTransport,
    Transport,
)


class ProcessGroup:
    """World of ``world_size`` ranks bound to one transport.

    Collective arguments are *lists indexed by rank* (the in-process
    equivalent of each rank passing its local buffer).
    """

    def __init__(self, transport: Transport):
        self.transport = transport

    # -- constructors ---------------------------------------------------
    @classmethod
    def sim(cls, world_size: int,
            cost_model: CommCostModel | None = None) -> "ProcessGroup":
        """Simulated ranks priced by the cluster cost model."""
        return cls(SimTransport(world_size, cost_model))

    @classmethod
    def threads(cls, world_size: int, *,
                parallel: bool = True) -> "ProcessGroup":
        """Ranks on real threads; measured wall time, no simulation."""
        return cls(ThreadTransport(world_size, parallel=parallel))

    @classmethod
    def processes(cls, world_size: int, *, parallel: bool = True,
                  max_inflight: int | None = None) -> "ProcessGroup":
        """Ranks as forked processes; zero-copy shm data plane."""
        from repro.runtime.fabric import ProcessTransport
        return cls(ProcessTransport(world_size, parallel=parallel,
                                    max_inflight=max_inflight))

    # -- introspection --------------------------------------------------
    @property
    def world_size(self) -> int:
        return self.transport.world_size

    @property
    def stats(self) -> CommStats:
        """Traffic accounting by category (gradient / data / metric / ...)."""
        return self.transport.stats

    @property
    def now(self) -> float:
        return self.transport.now

    def elapsed_breakdown(self) -> dict[str, float]:
        return self.transport.elapsed_breakdown()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(world_size={self.world_size}, "
                f"transport={type(self.transport).__name__})")

    # -- rank execution -------------------------------------------------
    def run_ranks(self, fn: Callable[[int], object], *,
                  parallel: bool = True) -> list:
        """Execute ``fn(rank)`` on every rank; results in rank order.

        ``parallel=False`` forces sequential execution even on a parallel
        transport (callers use it when per-rank closures share mutable
        state).
        """
        return self.transport.run_ranks(fn, parallel=parallel)

    def advance_compute(self, rank: int, seconds: float) -> None:
        """Charge local computation to a rank's clock."""
        self.transport.advance_compute(rank, seconds)

    # -- collectives ----------------------------------------------------
    def allreduce(self, arrays: list[np.ndarray], op: str = "mean",
                  category: str = "gradient") -> list[np.ndarray]:
        return collectives.all_reduce(self.transport, arrays, op, category)

    def reduce_scatter(self, arrays: list[np.ndarray], op: str = "mean",
                       category: str = "gradient") -> list[np.ndarray]:
        return collectives.reduce_scatter(self.transport, arrays, op,
                                          category)

    def allgather(self, arrays: list[np.ndarray],
                  category: str = "data") -> list[list[np.ndarray]]:
        return collectives.all_gather(self.transport, arrays, category)

    def broadcast(self, value: np.ndarray, root: int = 0,
                  category: str = "control") -> list[np.ndarray]:
        return collectives.broadcast(self.transport, value, root, category)

    def send(self, array: np.ndarray, src: int, dst: int,
             category: str = "data") -> np.ndarray:
        return collectives.point_to_point(self.transport, array, src, dst,
                                          category)

    def barrier(self) -> None:
        collectives.barrier(self.transport)

    # -- data plane -----------------------------------------------------
    def fetch(self, src: int, dst: int, nbytes: int,
              category: str = "data") -> None:
        """On-demand pull of ``nbytes`` from ``src``'s memory to ``dst``."""
        self.transport.p2p(src, dst, nbytes, category)

    def fetch_all(self, total_bytes: int, messages_per_rank: int,
                  category: str = "data") -> None:
        """All ranks fetch concurrently, contending on the shared fabric."""
        self.transport.contended_fetch(total_bytes, messages_per_rank,
                                       category)

    def charge(self, category: str, nbytes: int, seconds: float,
               ops: int = 1) -> None:
        """Record pre-priced traffic (the performance model's entry)."""
        self.transport.charge(category, nbytes, seconds, ops)


def as_process_group(comm, *, world_size: int | None = None) -> ProcessGroup:
    """Normalise anything comm-like into a :class:`ProcessGroup`.

    Accepts a ``ProcessGroup`` (returned as-is), any object satisfying the
    :class:`Transport` protocol — third-party fabrics plug in here — or
    ``None`` with an explicit ``world_size`` (builds the default
    simulated group).
    """
    if isinstance(comm, ProcessGroup):
        return comm
    if isinstance(comm, Transport):
        return ProcessGroup(comm)
    if comm is None:
        if world_size is None:
            raise ValueError("need a world_size to build a default "
                             "ProcessGroup from None")
        return ProcessGroup.sim(world_size)
    raise TypeError(f"cannot interpret {type(comm).__name__} as a "
                    f"ProcessGroup; pass ProcessGroup.sim(...) / "
                    f".threads(...) or a Transport implementation")
