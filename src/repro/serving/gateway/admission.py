"""Admission control: reject requests whose deadline is already lost.

The :class:`~repro.serving.queue.MicroBatchQueue` batches by backlog but
never *bounds* the backlog: under overload it just queues, and every
latency (and deadline miss) grows without bound.  The admission
controller closes that gap at the front door: before a request is
enqueued it **projects** the completion time from the current queue
depth and a running estimate of what a full batch costs, and sheds the
request when the projection blows its deadline (or when the queue has
hit a hard depth cap).  Shedding at admission converts unbounded queueing
collapse into bounded goodput loss: the requests that *are* admitted
still meet their deadlines.

The projection model (all quantities on the shared clock)::

    batches_ahead = floor(depth / max_batch)     # full batches before ours
    finish        = now + (batches_ahead + 1) * est_batch_seconds

The gateway is synchronous and its queue work-conserving, so at every
``submit`` the server is idle and the ``poll`` that follows dispatches
the whole backlog back to back: there is no wait term.  The request's
own batch is charged as a full one, because later arrivals of the same
instant may still fill it.

``est_batch_seconds`` estimates a **full** batch, from one observation
per served batch (seeded from the service's synthetic ``service_time``
model when one is configured, so simulated runs shed deterministically
from the first request).  A full batch is a sample of it and moves an
EWMA.  A partial batch, and every drain ends in one, costs no more than
a full one, so it is only a lower bound: it lifts a lower estimate and
never pulls one down.  An average over mixed sizes would under-project
every full batch ahead, and the error multiplies with queue depth.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

#: Smoothing for the per-deployment full-batch service-time estimate:
#: each observed full batch moves the estimate a fifth of the way to itself.
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

    def observe(self, deployment: str, batch_seconds: float, *,
                full: bool = True) -> None:
        """Fold one served batch into the full-batch estimate: an EWMA
        sample when the batch was ``full``, otherwise a lower bound."""
        deployment, seconds = str(deployment), float(batch_seconds)
        prev = self._est_batch_seconds.get(deployment)
        if prev is None or (not full and seconds > prev):
            self._est_batch_seconds[deployment] = seconds
        elif full:
            self._est_batch_seconds[deployment] = (
                (1.0 - EWMA_ALPHA) * prev + EWMA_ALPHA * seconds)

    def estimate(self, deployment: str) -> float:
        """Current full-batch service-time estimate (0.0 until anything is
        known — an optimistic prior that never sheds blind)."""
        return self._est_batch_seconds.get(str(deployment), 0.0)

    # ------------------------------------------------------------------
    # The admission decision
    # ------------------------------------------------------------------
    def projected_latency(self, queue, deployment: str) -> float:
        """Seconds until a request submitted *now* would complete: the
        full batches ahead of it, then its own, back to back."""
        return ((len(queue) // queue.max_batch + 1)
                * self.estimate(deployment))

    def admit(self, queue, *, tenant: str, deployment: str,
              deadline: float | None) -> ShedDecision | None:
        """``None`` to admit, or the counted :class:`ShedDecision`.

        Called with the deployment's queue *before* the request is
        enqueued; ``deadline`` is absolute clock time (``None`` = the
        request never sheds on projection, only on the depth cap).

        A request re-routed to a fallback after a failed dispatch comes
        through here with its *original* absolute deadline: the remaining
        budget has shrunk by the failed attempt, so the re-route is
        charged against the same estimate as fresh traffic and overload
        still sheds honestly.
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
