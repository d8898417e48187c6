"""Real rank-execution fabrics: separate interpreters per rank.

The :mod:`repro.runtime.transport` fabrics run every rank inside the
driver interpreter (sequentially, or on GIL-sharing threads).  This
package provides the fabric where ranks own whole processes:
:class:`ProcessTransport` — forked children with a zero-copy
shared-memory data plane (:mod:`~repro.runtime.fabric.shm`) and a
framed shm-ring control plane (:mod:`~repro.runtime.fabric.framing`).

It keeps collectives centralized in the driver, so training curves are
bitwise identical to the sim/thread fabrics, and composes with
:class:`~repro.runtime.faults.FaultyTransport` (an injected crash is a
real child death).
"""

from repro.runtime.fabric import framing
from repro.runtime.fabric.shm import RingClosed, SharedArrayPool, ShmRing
from repro.runtime.fabric.base import CRASH_EXIT_CODE, ForkFabric
from repro.runtime.fabric.process import ProcessTransport

__all__ = [
    "framing",
    "SharedArrayPool",
    "ShmRing",
    "RingClosed",
    "ForkFabric",
    "CRASH_EXIT_CODE",
    "ProcessTransport",
]
