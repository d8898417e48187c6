"""An explicitly-advanced clock measured in seconds.

Simulated memory spaces and rank transports advance manual
clocks through the cost models, and the serving stack runs on one by
default.  Using explicit clocks keeps every simulated runtime
deterministic.
"""

from __future__ import annotations


class ManualClock:
    """Monotonically advancing simulated time.  Callable like
    ``time.perf_counter`` so queues and services share it."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def __call__(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds (must be non-negative)."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Jump to absolute time ``t`` if it is in the future."""
        if t > self._now:
            self._now = float(t)
        return self._now

    def __repr__(self) -> str:
        return f"ManualClock(now={self._now:.6f})"
