"""Real-hardware introspection: how much parallelism this box offers.

Everything else in :mod:`repro.hardware` models the *paper's* hardware
(simulated Polaris nodes); this module asks about the machine the code
is actually running on, which the parallel transports need to size
pools and the end-to-end benchmark reports beside its speedups.
"""

from __future__ import annotations

import os


def usable_cores() -> int:
    """CPU cores this process may actually run on.

    ``os.cpu_count()`` reports the machine's cores, but containers and
    batch schedulers routinely pin processes to a subset; sizing a rank
    pool or gating a wall-clock speedup claim on the machine total then
    over-commits (or over-promises).  Prefer the scheduling affinity
    mask when the platform exposes one, fall back to the machine count,
    and never report less than one.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux / restricted platforms
        return max(1, os.cpu_count() or 1)
