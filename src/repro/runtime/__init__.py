"""Distributed execution runtime: transports, collectives, process groups.

Layering (bottom up):

- :mod:`repro.runtime.transport` — where ranks run and what
  communication costs (``SimTransport``, the cost model).
- :mod:`repro.runtime.fabric` — the real multi-interpreter fabric:
  ``ProcessTransport`` (forked ranks, zero-copy shared-memory data
  plane, each rank's outcome sent home over a pipe).
- :mod:`repro.runtime.collectives` — the ring all-reduce, implemented
  once against the :class:`Transport` protocol (every rank holds the
  whole dataset, so gradients are the only traffic: one flat buffer per
  rank, laid out like the optimizer's, so a step is one all-reduce).
- :mod:`repro.runtime.process_group` — the :class:`ProcessGroup` facade
  trainers, serving and the performance model consume.
- :mod:`repro.runtime.faults` — deterministic fault injection
  (:class:`FaultPlan` schedules, :class:`FaultyTransport` wrapper) for
  the chaos test tier.

Two transports, one reason each: ``SimTransport`` is the cost model
(simulated time and bytes, what the paper-scale tables price), and
``ProcessTransport`` runs ranks for real, inline on the driver or one
forked interpreter per rank (no GIL sharing, real child death, and the
fork snapshot is each rank's replica, so ranks never share mutable
state).  A third fabric, rank threads in one address space, was removed:
on a 2-core host at world 2 (64 sensors, hidden 32, batch 16 per rank,
one BLAS thread) it won one shape (62 ms a step, against 85 ms forked
and 108 ms inline), but at the benchmark's 24 × 16 shape inline ranks
won (13 vs 25 ms), and so did they when BLAS ran its own threads, while
it alone needed per-rank model replicas, loader clones and a lock in
the kernel cache.  Ranks are forked from the driver, so every fabric
here is same-host; a second byte-stream protocol between one host's
processes would duplicate ``ProcessTransport``.
"""

from repro.runtime.faults import (
    FaultEvent,
    FaultPlan,
    FaultyTransport,
    RankFailure,
)
from repro.runtime.collectives import all_reduce
from repro.runtime.fabric import ProcessTransport
from repro.runtime.process_group import ProcessGroup, as_process_group
from repro.runtime.transport import (
    CommStats,
    SimTransport,
    Transport,
)

__all__ = [
    "Transport",
    "SimTransport",
    "ProcessTransport",
    "CommStats",
    "FaultEvent",
    "FaultPlan",
    "FaultyTransport",
    "RankFailure",
    "ProcessGroup",
    "as_process_group",
    "all_reduce",
]
