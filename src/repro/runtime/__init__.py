"""Distributed execution runtime: transports, collectives, process groups.

Layering (bottom up):

- :mod:`repro.runtime.transport` — where ranks run and what
  communication costs (``SimTransport`` / ``ThreadTransport``).
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

Three transports, one reason each: ``SimTransport`` is the cost model
(simulated time and bytes, what the paper-scale tables price),
``ProcessTransport`` is the one fabric whose ranks own an interpreter
(no GIL sharing, real child death), and ``ThreadTransport`` is the
measured-fastest one where rank steps are large: NumPy releases the GIL,
so rank threads overlap on real cores without a fork per step.  On a
2-core host at world 2 (64 sensors, hidden 32, batch 16 per rank, one
BLAS thread) a step took 62 ms on threads, 85 ms forked and 108 ms
inline; at the benchmark's 24 × 16 shape inline ranks win (13 vs 25 ms),
and so do they when BLAS runs its own threads.  Ranks are forked from
the driver, so every fabric here is same-host; a second byte-stream
protocol between one host's processes would duplicate
``ProcessTransport``.
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
    MeasuredTransport,
    SimTransport,
    ThreadTransport,
    Transport,
)

__all__ = [
    "Transport",
    "SimTransport",
    "ThreadTransport",
    "MeasuredTransport",
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
