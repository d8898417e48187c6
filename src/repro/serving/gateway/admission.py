"""Admission control: reject requests whose deadline is already lost.

The :class:`~repro.serving.queue.MicroBatchQueue` embodies the Clipper
batching/latency trade-off but never *enforces* it — under overload it
just queues, and every latency (and deadline miss) grows without bound.
The admission controller closes that gap at the front door: before a
request is enqueued it **projects** the completion time from the current
queue depth, the coalescing timer, and a running per-batch service-time
estimate, and sheds the request when the projection blows its deadline
(or when the queue has hit a hard depth cap).  Shedding at admission
converts unbounded queueing collapse into bounded goodput loss — the
requests that *are* admitted still meet their deadlines.

The projection model (all quantities on the shared clock)::

    batches_ahead = floor(depth / max_batch)     # full batches before ours
    wait          = coalescing delay of the batch we would join
    finish        = now + wait + (batches_ahead + 1) * est_batch_seconds

``est_batch_seconds`` is an EWMA over observed dispatches (seeded from
the service's synthetic ``service_time`` model when one is configured,
so simulated runs shed deterministically from the first request).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

#: Smoothing for the per-deployment batch-service-time estimate: each
#: observed dispatch moves the estimate a fifth of the way to itself.
EWMA_ALPHA = 0.2


@dataclass(frozen=True)
class ShedDecision:
    """One rejected request: why, and what the projection promised."""

    tenant: str
    deployment: str
    reason: str                 # "deadline" | "capacity"
    at: float                   # clock time of the decision
    queue_depth: int
    projected_latency: float    # seconds the projection promised
    deadline_budget: float      # seconds the request allowed (inf if none)


class AdmissionController:
    """Deadline-projection + depth-cap admission for one gateway.

    Parameters
    ----------
    clock:
        the gateway clock (shared with queues and cache).
    max_queue_depth:
        hard cap on pending requests per deployment; arrivals past it are
        shed with reason ``"capacity"`` regardless of deadlines.
    """

    def __init__(self, clock: Callable[[], float], *,
                 max_queue_depth: int = 256):
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, "
                             f"got {max_queue_depth}")
        self.clock = clock
        self.max_queue_depth = int(max_queue_depth)
        self._est_batch_seconds: dict[str, float] = {}
        # Shed requests are counted, not kept: the decision object goes
        # back to the caller and nothing per-request outlives the call.
        self._shed_by_tenant: Counter[str] = Counter()
        self._shed_by_reason: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Service-time estimation
    # ------------------------------------------------------------------
    def seed_estimate(self, deployment: str, batch_seconds: float) -> None:
        """Install a prior estimate (e.g. from a synthetic service-time
        model) so projections are meaningful before the first dispatch."""
        self._est_batch_seconds[str(deployment)] = float(batch_seconds)

    def observe(self, deployment: str, batch_seconds: float) -> None:
        """Fold one measured batch dispatch into the EWMA estimate."""
        deployment = str(deployment)
        prev = self._est_batch_seconds.get(deployment)
        if prev is None:
            self._est_batch_seconds[deployment] = float(batch_seconds)
        else:
            self._est_batch_seconds[deployment] = (
                (1.0 - EWMA_ALPHA) * prev + EWMA_ALPHA * float(batch_seconds))

    def estimate(self, deployment: str) -> float:
        """Current per-batch service-time estimate (0.0 until anything is
        known — an optimistic prior that never sheds blind)."""
        return self._est_batch_seconds.get(str(deployment), 0.0)

    # ------------------------------------------------------------------
    # The admission decision
    # ------------------------------------------------------------------
    def projected_latency(self, queue, deployment: str) -> float:
        """Seconds until a request submitted *now* would complete."""
        depth = len(queue)
        est = self.estimate(deployment)
        batches_ahead = depth // queue.max_batch
        if depth + 1 >= queue.max_batch:
            wait = 0.0          # our batch fills and fires immediately
        else:
            remaining = queue.time_until_ready()
            wait = queue.max_wait if remaining is None else remaining
        return wait + (batches_ahead + 1) * est

    def admit(self, queue, *, tenant: str, deployment: str,
              deadline: float | None) -> ShedDecision | None:
        """``None`` to admit, or the counted :class:`ShedDecision`.

        Called with the deployment's queue *before* the request is
        enqueued; ``deadline`` is absolute clock time (``None`` = the
        request never sheds on projection, only on the depth cap).

        Retries of failed dispatches come back through here with their
        *original* absolute deadline: the remaining budget has shrunk by
        the failed attempt, so a retry is charged against the same
        estimate as fresh traffic and overload still sheds honestly.
        """
        now = self.clock()
        depth = len(queue)
        projected = self.projected_latency(queue, deployment)
        budget = float("inf") if deadline is None else deadline - now
        if depth >= self.max_queue_depth:
            reason = "capacity"
        elif projected > budget:
            reason = "deadline"
        else:
            return None
        decision = ShedDecision(
            tenant=str(tenant), deployment=str(deployment), reason=reason,
            at=now, queue_depth=depth, projected_latency=float(projected),
            deadline_budget=float(budget))
        self._shed_by_tenant[decision.tenant] += 1
        self._shed_by_reason[reason] += 1
        return decision

    # ------------------------------------------------------------------
    def shed_by_tenant(self) -> dict[str, int]:
        return dict(self._shed_by_tenant)

    def shed_by_reason(self) -> dict[str, int]:
        return dict(self._shed_by_reason)
