"""Process fabric: one forked interpreter per rank, shm data plane.

The data plane is zero-copy: :meth:`ProcessTransport.attach_rank_buffers`
re-backs each rank's :class:`~repro.runtime.buckets.GradientBucketer`
flat buffers (or any other per-rank output arrays) on a
:class:`~repro.runtime.fabric.shm.SharedArrayPool`, so a child rank's
``pack()`` writes land directly in memory the driver reduces from —
nothing is serialized or copied across the process boundary.  The
control plane is one :class:`~repro.runtime.fabric.shm.ShmRing` per
child carrying the rank's result/error frame with a seqlock-style
publish handshake.
"""

from __future__ import annotations

import weakref
from typing import Callable

from repro.runtime.fabric import framing
from repro.runtime.fabric.base import ChildHandle, ForkFabric, run_child
from repro.runtime.fabric.shm import SharedArrayPool, ShmRing
from repro.runtime.transport import _check_rank


def _destroy_pools(pools: list) -> None:
    while pools:
        pools.pop().destroy()


class _ProcessHandle(ChildHandle):
    def __init__(self, rank: int, proc, ring: ShmRing):
        super().__init__(rank, proc)
        self.ring = ring
        self._frames: list[bytes] = []

    def poll(self) -> None:
        self._frames += self.ring.drain()
        if self.proc.is_alive():
            return
        self.proc.join()
        self._frames += self.ring.drain()  # bytes published before death
        if self._frames:
            _, self.outcome = framing.decode(self._frames[-1])
        self.ring.destroy()
        self.finished = True

    def abandon(self) -> None:
        self.ring.destroy()


class ProcessTransport(ForkFabric):
    """Real-process fabric: one forked child per rank per step.

    Every rank owns a whole interpreter (no GIL sharing), so rank steps
    scale with physical cores.  Collectives stay centralized in the
    driver (:mod:`repro.runtime.collectives` reduces in rank order), so
    training curves are bitwise identical to the sim/thread fabrics.

    ``ring_capacity`` sizes the per-child result ring; frames larger
    than the ring still flow because the driver drains while children
    run.
    """

    def __init__(self, world_size: int, *, parallel: bool = True,
                 ring_capacity: int = 1 << 16):
        super().__init__(world_size, parallel=parallel)
        self.ring_capacity = int(ring_capacity)
        self._pools: list[SharedArrayPool] = []
        # Pools must be unlinked even if nobody calls shutdown() — the
        # finalizer runs at GC or interpreter exit, whichever is first.
        self._finalizer = weakref.finalize(self, _destroy_pools, self._pools)

    # -- data plane -----------------------------------------------------
    def attach_rank_buffers(self, rank: int, buffers: list) -> list:
        """Re-back per-rank output arrays on shared memory.

        The returned views alias one shared block: the forked child
        inherits the mapping and writes through it, so after
        :meth:`run_ranks` the driver reads the child's bytes in place.
        """
        _check_rank(self.world_size, rank)
        pool = SharedArrayPool(list(buffers))
        self._pools.append(pool)
        return list(pool.arrays)

    # -- control plane --------------------------------------------------
    def _spawn(self, rank: int, fn: Callable[[int], object]) -> ChildHandle:
        ring = ShmRing(self.ring_capacity)

        def child() -> None:  # pragma: no cover — runs in the forked child
            def deliver(outcome: tuple) -> None:
                ring.write_frame(framing.encode_object(outcome))
                ring.close_writer()
            run_child(rank, fn, deliver)

        # The fork start method runs ``child`` in the forked interpreter
        # directly — nothing (not even the closure) is pickled.
        proc = self._ctx.Process(target=child, name=f"repro-rank-{rank}",
                                 daemon=True)
        proc.start()
        return _ProcessHandle(rank, proc, ring)

    def shutdown(self) -> None:
        """Free the shared-memory pools (idempotent)."""
        _destroy_pools(self._pools)
