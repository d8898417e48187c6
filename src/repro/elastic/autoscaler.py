"""Serving autoscaler: resize the shard fleet to hold a p99 SLO.

The control loop is deliberately boring — the well-understood
double/halve policy with hysteresis and a cooldown — because the point
of this module is not a novel controller but a *verifiable* one: every
input is a :class:`~repro.serving.loadgen.LoadReport` measured on the
service's :class:`~repro.serving.service.ManualClock`, every action is a
:meth:`~repro.serving.sharding.ShardedSession.scale_to` call, and the
whole trace (latencies, decisions, membership changes) is a pure
function of (seed, policy, traffic), so tests can pin it bit-for-bit.

Control theory in one paragraph: the watched signal is the last tick's
p99 latency relative to the SLO.  Above ``scale_up_at`` x SLO the fleet
doubles (the partitioner wants powers of two anyway, and doubling beats
increments when queueing has already collapsed — latency past capacity
grows without bound, not linearly).  Below ``scale_down_at`` x SLO it
halves; the wide dead band between the thresholds is the hysteresis
that keeps a fleet serving near-SLO traffic from flapping.  A cooldown
blocks back-to-back resizes so each decision observes traffic served by
the fleet it created, and every resize charges ``transition_seconds``
onto the serving clock — membership changes are not free, and the SLO
accounting must see their cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.serving.loadgen import LoadGenerator, LoadReport
from repro.serving.service import ForecastService, ManualClock


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Setpoints for the double/halve control loop.

    ``min_shards``/``max_shards`` bound the fleet and should be powers
    of two (the graph partitioner's constraint); the capacity planner's
    :func:`~repro.elastic.planner.autoscaler_setpoints` derives them
    from traffic budgets.
    """

    slo_p99: float                      # the latency objective, seconds
    min_shards: int = 1
    max_shards: int = 8
    scale_up_at: float = 1.0            # p99 > slo * this -> double
    scale_down_at: float = 0.45         # p99 < slo * this -> halve
    cooldown_seconds: float = 0.0       # min clock time between resizes
    transition_seconds: float = 0.02    # clock cost charged per resize

    def __post_init__(self):
        if self.slo_p99 <= 0:
            raise ValueError(f"slo_p99 must be positive, got {self.slo_p99}")
        if not 1 <= self.min_shards <= self.max_shards:
            raise ValueError(
                f"need 1 <= min_shards <= max_shards, got "
                f"[{self.min_shards}, {self.max_shards}]")
        if self.scale_down_at >= self.scale_up_at:
            raise ValueError(
                f"scale_down_at ({self.scale_down_at}) must sit below "
                f"scale_up_at ({self.scale_up_at}) — the gap is the "
                f"hysteresis band that prevents flapping")


@dataclass(frozen=True)
class AutoscaleEvent:
    """One control decision that resized the fleet."""

    at: float               # service clock when the resize ran
    from_shards: int
    to_shards: int
    p99: float              # the observed p99 that triggered it
    reason: str


class ShardAutoscaler:
    """Watches load reports, resizes a :class:`ShardedSession`.

    The autoscaler never measures anything itself: callers feed it the
    :class:`LoadReport` of each completed traffic tick (the natural
    control interval) via :meth:`observe`, and it either acts through
    ``session.scale_to`` or holds.  Decisions land in :attr:`events`.
    """

    def __init__(self, session: Any, policy: AutoscalerPolicy,
                 clock: ManualClock):
        self.session = session
        self.policy = policy
        self.clock = clock
        self.events: list[AutoscaleEvent] = []
        self._last_scale_at: float | None = None

    @property
    def shards(self) -> int:
        return int(self.session.num_shards)

    def desired_shards(self, p99: float) -> tuple[int, str] | None:
        """The (target, reason) the policy wants for an observed p99, or
        ``None`` to hold.  Pure — no cooldown, no side effects."""
        pol = self.policy
        if not np.isfinite(p99):
            return None
        shards = self.shards
        if p99 > pol.slo_p99 * pol.scale_up_at:
            target = shards * 2
            if target > pol.max_shards:
                return None
            return target, (f"p99 {p99 * 1e3:.2f} ms > "
                            f"{pol.scale_up_at:g} x SLO "
                            f"{pol.slo_p99 * 1e3:.2f} ms")
        if p99 < pol.slo_p99 * pol.scale_down_at:
            target = shards // 2
            if target < pol.min_shards:
                return None
            return target, (f"p99 {p99 * 1e3:.2f} ms < "
                            f"{pol.scale_down_at:g} x SLO "
                            f"{pol.slo_p99 * 1e3:.2f} ms")
        return None

    def observe(self, report: LoadReport) -> AutoscaleEvent | None:
        """Feed one tick's load report; maybe resize the fleet."""
        return self.observe_p99(float(report.latency_p99))

    def observe_p99(self, p99: float) -> AutoscaleEvent | None:
        in_cooldown = (
            self._last_scale_at is not None
            and self.clock.now - self._last_scale_at
            < self.policy.cooldown_seconds)
        if in_cooldown:
            return None
        want = self.desired_shards(p99)
        if want is None:
            return None
        target, reason = want
        before = self.shards
        self.session.scale_to(target)
        # Membership changes cost real time (re-partition, store replay,
        # connection churn); charge it where the latency accounting lives.
        self.clock.advance(self.policy.transition_seconds)
        self._last_scale_at = self.clock.now
        event = AutoscaleEvent(at=self.clock.now, from_shards=before,
                               to_shards=target, p99=p99, reason=reason)
        self.events.append(event)
        return event


def shard_scaled_service_time(session: Any, *, base: float,
                              per_item: float) -> Callable[[int], float]:
    """A synthetic per-batch service-time model whose capacity tracks the
    *live* shard count: a batch of ``n`` costs ``(base + per_item * n) /
    num_shards`` seconds.  The closure reads ``session.num_shards`` at
    every dispatch, so an autoscaler resize changes service times from
    the next batch on — deterministically, which is what lets the
    elastic tests pin whole scale-up/down traces bitwise."""
    def service_time(n: int) -> float:
        return (base + per_item * n) / max(int(session.num_shards), 1)
    return service_time


@dataclass
class ElasticRunReport:
    """One autoscaled traffic trace, tick by tick."""

    slo_p99: float
    ticks: list[dict] = field(default_factory=list)
    events: list[AutoscaleEvent] = field(default_factory=list)
    convergence_seconds: list[float] = field(default_factory=list)

    @property
    def shards_path(self) -> list[int]:
        """Fleet size after each tick's control decision."""
        return [t["shards_after"] for t in self.ticks]

    @property
    def requests(self) -> int:
        return sum(t["requests"] for t in self.ticks)

    @property
    def deadline_misses(self) -> int:
        return sum(t["deadline_misses"] for t in self.ticks)

    @property
    def slo_compliance(self) -> float:
        """Request-level: the fraction of requests answered inside the
        SLO deadline, across the whole trace (transitions included)."""
        total = self.requests
        return 1.0 - self.deadline_misses / total if total else 1.0

    def summary(self) -> str:
        sizes: list[int] = []
        for s in self.shards_path:       # collapse runs: 2,2,4,4,2 -> 2,4,2
            if not sizes or sizes[-1] != s:
                sizes.append(s)
        path = "->".join(str(s) for s in sizes)
        conv = (", convergence " + "/".join(
            f"{c * 1e3:.1f} ms" for c in self.convergence_seconds)
            if self.convergence_seconds else "")
        return (f"{len(self.ticks)} ticks, shards {path}, "
                f"{self.requests} requests, SLO compliance "
                f"{self.slo_compliance:.1%}{conv}")


def run_autoscaled_trace(service: ForecastService, windows: np.ndarray,
                         autoscaler: ShardAutoscaler,
                         segments: list[tuple[float, int]], *,
                         seed: int = 0, tick_requests: int = 40,
                         deadline: float | None = None) -> ElasticRunReport:
    """Drive an autoscaled service through a traffic trace.

    ``segments`` is a list of ``(rate_qps, ticks)`` phases — e.g.
    ``[(low, 4), (high, 6), (low, 4)]`` is the canonical scale-up-then-
    down demo.  Each tick runs one seeded open-loop burst of
    ``tick_requests`` requests at the phase's rate (uniform arrivals, so
    rate changes are sharp edges), stamps every request with the SLO as
    its deadline (override with ``deadline``), then feeds the tick's
    report to the autoscaler.  One :class:`LoadGenerator` spans the whole
    trace, so the request stream is a single seeded sequence.

    Convergence accounting: for every autoscale event, the report
    records the clock time from the resize to the end of the first
    subsequent tick whose p99 meets the SLO (``inf`` if the trace ends
    first) — the scale-up/scale-down convergence numbers.
    """
    if deadline is None:
        deadline = autoscaler.policy.slo_p99
    gen = LoadGenerator(service, windows, seed=seed)
    report = ElasticRunReport(slo_p99=autoscaler.policy.slo_p99)
    tick = 0
    for rate_qps, ticks in segments:
        for _ in range(int(ticks)):
            before = autoscaler.shards
            lr = gen.open_loop(requests=int(tick_requests),
                               rate_qps=float(rate_qps), arrival="uniform",
                               deadline=deadline,
                               scenario=f"tick-{tick}")
            event = autoscaler.observe(lr)
            report.ticks.append({
                "tick": tick, "rate_qps": float(rate_qps),
                "shards_before": before, "shards_after": autoscaler.shards,
                "p99": float(lr.latency_p99),
                "requests": int(lr.requests),
                "deadline_misses": int(lr.deadline_misses),
                "end_at": float(gen.clock.now),
                "scaled": event is not None,
            })
            tick += 1
    report.events = list(autoscaler.events)
    for ev in report.events:
        conv = float("inf")
        for t in report.ticks:
            if t["end_at"] >= ev.at and t["p99"] <= report.slo_p99:
                conv = t["end_at"] - ev.at
                break
        report.convergence_seconds.append(conv)
    return report
