"""Byte-exact memory-space accounting with OOM faults and timelines.

A :class:`MemorySpace` stands in for a node's DDR4 or a GPU's HBM.  Both
the *mechanistic* full-scale pipeline simulations (which never allocate
real arrays) and the *real* small-scale pipelines (which do) charge the
same sequence here, so one accounting layer produces the paper's memory
traces (Figures 2 and 6) and peak columns (Tables 2, 3, 4).

The ledger models the *paper's* pipelines; it is not a record of what this
process allocates.  ``standard_preprocess`` does materialise the arrays it
charges, but ``IndexDataset.from_dataset`` charges the published PGT-I
sequence (raw + augmented copy + standardization scratch, then a storage
cast) while standardizing block by block straight into the stored array,
so its real peak is far lower than its charged one.  What the process
really peaks at is measured, not charged: the end-to-end benchmark's
``peak_rss_mb`` and ``preprocessing.traced_peak_mb``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.profiling.clock import ManualClock
from repro.utils.errors import OutOfMemoryError
from repro.utils.sizes import format_bytes


@dataclass(frozen=True)
class Allocation:
    """Handle to a live allocation; pass back to :meth:`MemorySpace.free`."""

    alloc_id: int
    label: str
    nbytes: int


@dataclass(frozen=True)
class MemoryEvent:
    """One timeline entry: usage after an alloc (+) or free (-)."""

    time: float
    label: str
    delta: int
    in_use: int


class MemorySpace:
    """A capacity-limited memory pool with peak tracking.

    Parameters
    ----------
    name: e.g. ``"node0:ram"`` or ``"gpu0:hbm"``.
    capacity: bytes; ``None`` means unlimited (useful in unit tests).
    clock: timestamps for the usage timeline (optional).
    baseline: bytes considered permanently resident (OS + interpreter +
        framework); the paper's psutil measurements include this, so the
        experiment harness sets a small baseline for comparability.
    """

    def __init__(self, name: str, capacity: int | None = None,
                 clock: ManualClock | None = None, baseline: int = 0):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        if baseline < 0 or (capacity is not None and baseline > capacity):
            raise ValueError("baseline must be within [0, capacity]")
        self.name = name
        self.capacity = capacity
        self.clock = clock
        self.baseline = int(baseline)
        self.in_use = int(baseline)
        self.peak = int(baseline)
        self.events: list[MemoryEvent] = []
        self._live: dict[int, Allocation] = {}
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self.clock.now if self.clock is not None else float(len(self.events))

    def allocate(self, label: str, nbytes: int) -> Allocation:
        """Reserve ``nbytes``; raises :class:`OutOfMemoryError` on overflow."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.capacity is not None and self.in_use + nbytes > self.capacity:
            raise OutOfMemoryError(
                f"{self.name}: allocating {format_bytes(nbytes)} for "
                f"{label!r} exceeds capacity {format_bytes(self.capacity)} "
                f"(in use: {format_bytes(self.in_use)})",
                space=self.name, requested=nbytes,
                capacity=self.capacity, in_use=self.in_use)
        alloc = Allocation(next(self._ids), label, nbytes)
        self._live[alloc.alloc_id] = alloc
        self.in_use += nbytes
        self.peak = max(self.peak, self.in_use)
        self.events.append(MemoryEvent(self._now(), label, nbytes, self.in_use))
        return alloc

    def free(self, alloc: Allocation) -> None:
        """Release a live allocation (double-free raises)."""
        if alloc.alloc_id not in self._live:
            raise KeyError(f"{self.name}: double free of {alloc.label!r}")
        del self._live[alloc.alloc_id]
        self.in_use -= alloc.nbytes
        self.events.append(MemoryEvent(self._now(), alloc.label,
                                       -alloc.nbytes, self.in_use))

    # ------------------------------------------------------------------
    @property
    def available(self) -> int | None:
        return None if self.capacity is None else self.capacity - self.in_use

    def live_allocations(self) -> list[Allocation]:
        return list(self._live.values())

    def usage_trace(self) -> list[tuple[float, int]]:
        """(time, bytes-in-use) pairs, one per event."""
        return [(e.time, e.in_use) for e in self.events]

    def would_fit(self, nbytes: int) -> bool:
        return self.capacity is None or self.in_use + nbytes <= self.capacity

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else format_bytes(self.capacity)
        return (f"MemorySpace({self.name!r}, in_use={format_bytes(self.in_use)}, "
                f"peak={format_bytes(self.peak)}, capacity={cap})")
