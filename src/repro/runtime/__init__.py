"""Distributed execution runtime: transports, collectives, process groups.

Layering (bottom up):

- :mod:`repro.runtime.transport` — where ranks run and what
  communication costs (``SimTransport`` / ``ThreadTransport``).
- :mod:`repro.runtime.fabric` — the real multi-interpreter fabric:
  ``ProcessTransport`` (forked ranks, zero-copy shared-memory data
  plane).
- :mod:`repro.runtime.collectives` — ring/tree collectives implemented
  once against the :class:`Transport` protocol.
- :mod:`repro.runtime.buckets` — gradient bucketing for DDP all-reduce.
- :mod:`repro.runtime.process_group` — the :class:`ProcessGroup` facade
  trainers, serving and the performance model consume.
- :mod:`repro.runtime.faults` — deterministic fault injection
  (:class:`FaultPlan` schedules, :class:`FaultyTransport` wrapper) for
  the chaos test tier.

Three transports, one reason each: ``SimTransport`` is the cost model
(simulated time and bytes, what the paper-scale tables price),
``ProcessTransport`` is the one fabric whose ranks own an interpreter
(no GIL sharing, real child death), and ``ThreadTransport`` is the
fork-free one (real concurrency on platforms or in hosts where ``fork``
is unavailable or unsafe).  Ranks are forked from the driver, so every
fabric here is same-host; a second byte-stream protocol between one
host's processes would duplicate ``ProcessTransport``.
"""

from repro.runtime.buckets import BucketLayout, BucketSlot, GradientBucketer
from repro.runtime.faults import (
    FaultEvent,
    FaultPlan,
    FaultyTransport,
    RankFailure,
)
from repro.runtime.collectives import (
    all_gather,
    all_reduce,
    barrier,
    broadcast,
    point_to_point,
    reduce_scatter,
)
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
    "GradientBucketer",
    "BucketLayout",
    "BucketSlot",
    "all_reduce",
    "reduce_scatter",
    "all_gather",
    "broadcast",
    "point_to_point",
    "barrier",
]
