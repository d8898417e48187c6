"""Work-conserving micro-batching request queue with deadline accounting.

Online inference throughput comes from coalescing concurrent requests
into one fused forward pass (the Clipper-style adaptive batching
argument): a batch of 8 windows costs far less than 8 single forwards
because the per-step Python/kernel overhead amortises.  The policy is
batching by backlog: ``submit`` only enqueues, and each ``next_batch``
pops what is pending, oldest first, up to ``max_batch``.  A batch is
therefore exactly what arrived while the previous dispatch ran; a
request never waits while the server is idle, and nothing is held back
in the hope of company (Clipper ships delayed batching as an opt-in for
the few models it helps; a synchronous server at part load is not one).

The contract for whoever drives the queue is **submit every arrival that
is due, then dispatch**: two requests due in the same instant share one
forward only if both are enqueued before the dispatch.

The queue is a pure, synchronous data structure driven by an injectable
``clock`` (the service passes a shared one): ``submit`` stamps arrivals
and ``next_batch`` stamps dispatches.  No threads — the serving loop and
the load generator drive time explicitly, which keeps every schedule
reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class ForecastRequest:
    """One queued forecast request.

    ``window`` is the standardized model input ``[horizon, nodes,
    features]``; ``deadline`` (absolute clock time, optional) marks when
    the answer stops being useful — completion later than this counts as
    a deadline miss, not a drop.
    """

    request_id: int
    window: np.ndarray
    arrival: float
    deadline: float | None = None
    # Filled in by the service at dispatch/completion time.
    dispatched: float = field(default=float("nan"))
    completed: float = field(default=float("nan"))
    batch_size: int = 0

    @property
    def queue_wait(self) -> float:
        return self.dispatched - self.arrival

    @property
    def latency(self) -> float:
        return self.completed - self.arrival

    @property
    def deadline_missed(self) -> bool:
        return self.deadline is not None and self.completed > self.deadline


class MicroBatchQueue:
    """FIFO of :class:`ForecastRequest`\\ s dispatched in chunks of at most
    ``max_batch``; whatever is pending is ready."""

    def __init__(self, *, max_batch: int = 8,
                 clock: Callable[[], float] | None = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        import time
        self.max_batch = int(max_batch)
        self.clock = clock if clock is not None else time.perf_counter
        self._pending: deque[ForecastRequest] = deque()
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, window: np.ndarray, *,
               deadline: float | None = None) -> ForecastRequest:
        """Enqueue one request, stamped with the current clock time."""
        req = ForecastRequest(request_id=self._next_id, window=window,
                              arrival=self.clock(), deadline=deadline)
        self._next_id += 1
        self._pending.append(req)
        return req

    def next_batch(self) -> list[ForecastRequest]:
        """Pop the oldest pending requests, up to ``max_batch`` (empty
        when nothing is pending).

        Dispatch times are stamped here; the caller stamps completion once
        the fused forward finishes.
        """
        now = self.clock()
        batch: list[ForecastRequest] = []
        while self._pending and len(batch) < self.max_batch:
            req = self._pending.popleft()
            req.dispatched = now
            batch.append(req)
        for req in batch:
            req.batch_size = len(batch)
        return batch
