"""Self-healing serving: circuit breakers, fault injection, degradation.

PR 5 taught *training* to survive injected faults; this module does the
same for the gateway.  The pieces compose on the gateway's shared clock,
so every failure, trip, probe and recovery is exactly as reproducible as
the request schedule that caused it:

- :class:`DeploymentFaultInjector` consumes the serving-side events of a
  :class:`~repro.runtime.faults.FaultPlan` (``session_crash``,
  ``session_straggler``, ``store_corruption``) and fires them at a
  deployment's dispatch boundaries — chaos composes with
  :class:`~repro.serving.loadgen.GatewayLoadGenerator` traffic.
- :class:`CircuitBreaker` is the classic closed → open → half-open
  machine over one deployment's health: consecutive dispatch failures
  and an EWMA of per-batch service time against a baseline.  It opens on
  ``FAILURE_THRESHOLD`` failures in a row or an EWMA above
  ``LATENCY_BLOWOUT`` x baseline, stays open for ``RESET_TIMEOUT`` clock
  seconds, then admits exactly one probe; a healthy probe closes it,
  anything else re-opens it.  Every transition is recorded as a
  :class:`CircuitTransition` (the chaos tests pin the full transition
  list bit-for-bit across reruns).
- :func:`degradation_rung` is the one recovery decision, a pure function
  the gateway executes.  A request its deployment cannot serve (circuit
  open, or its dispatch failed) walks the ladder: a stale-but-
  fingerprint-matching result-cache entry, the named fallback
  deployment, or an explicit failure — never a hang, never a silent
  drop.  The breaker alone decides when the deployment is probed again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.utils.errors import SessionFailure

#: Circuit breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

#: The breaker's policy.  Consecutive failed dispatches that open a
#: deployment's circuit:
FAILURE_THRESHOLD = 2
#: ...or an EWMA batch service time above this multiple of the
#: deployment's baseline estimate:
LATENCY_BLOWOUT = 4.0
#: EWMA smoothing for the breaker's latency track:
LATENCY_ALPHA = 0.3
#: Clock seconds an open circuit waits before admitting a probe:
RESET_TIMEOUT = 0.05


# The recovery decision is a function of plain observed values (no
# gateway, deployment, queue or clock; nothing is written), so it is
# tested as a truth table.  Gateway plumbing executes the answer.
def degradation_rung(*, stale_available: bool, fallback_ready: bool,
                     fallback_admitted: bool) -> str:
    """The ladder for a request its deployment cannot serve: a stale
    cache entry, else the fallback deployment (present with a closed
    circuit, and admission control took the request), else an explicit
    failure: ``"stale_cache"``, ``"fallback"`` or ``"failed"``."""
    if stale_available:
        return "stale_cache"
    if fallback_ready and fallback_admitted:
        return "fallback"
    return "failed"


@dataclass(frozen=True)
class CircuitTransition:
    """One circuit-breaker state change, recorded for determinism pins."""

    deployment: str
    frm: str
    to: str
    at: float                   # gateway-clock time of the transition
    reason: str                 # "failures" | "latency" | "timeout" |
    #                             "probe_ok" | "probe_failed"

    def to_dict(self) -> dict:
        return {"deployment": self.deployment, "from": self.frm,
                "to": self.to, "at": float(self.at), "reason": self.reason}


class CircuitBreaker:
    """Closed → open → half-open breaker for one deployment, and the
    health it decides on: failure streaks and an EWMA of per-batch
    service latency.

    All timing runs on the gateway clock, and probes are scheduled
    deterministically: an open circuit flips to half-open on the first
    request at least ``RESET_TIMEOUT`` after it opened, and half-open
    admits exactly one in-flight probe at a time.

    ``baseline`` anchors the latency-blowout test; the gateway seeds it
    from its synthetic service-time model when it has one.  Measured
    wall latencies are too noisy to anchor a blowout test, so a breaker
    without a baseline never trips on latency, only on failure streaks.
    """

    def __init__(self, deployment: str, clock: Callable[[], float], *,
                 baseline: float | None = None):
        self.deployment = str(deployment)
        self.clock = clock
        self.baseline = None if baseline is None else float(baseline)
        self.ewma_latency: float | None = None
        self.consecutive_failures = 0
        self.failures = 0
        self.successes = 0
        self.state = CLOSED
        self.opened_at: float | None = None
        self.probe_in_flight = False
        self.transitions: list[CircuitTransition] = []

    # ------------------------------------------------------------------
    def _move(self, to: str, reason: str, at: float) -> None:
        self.transitions.append(CircuitTransition(
            deployment=self.deployment, frm=self.state, to=to,
            at=at, reason=reason))
        self.state = to
        self.opened_at = at if to == OPEN else None
        if to != HALF_OPEN:
            self.probe_in_flight = False

    def _latency_blown(self, seconds: float | None) -> bool:
        """Whether ``seconds`` exceeds ``LATENCY_BLOWOUT`` x baseline.
        False until a baseline exists — never trips blind."""
        if self.baseline is None or self.baseline <= 0 or seconds is None:
            return False
        return seconds > LATENCY_BLOWOUT * self.baseline

    # ------------------------------------------------------------------
    def before_request(self, now: float | None = None) -> str:
        """The effective state for a request arriving now (applies the
        open -> half-open timeout transition)."""
        now = self.clock() if now is None else now
        if self.state == OPEN and now - self.opened_at >= RESET_TIMEOUT:
            self._move(HALF_OPEN, "timeout", now)
        return self.state

    def try_probe(self) -> bool:
        """Claim the half-open circuit's single probe slot."""
        if self.state != HALF_OPEN or self.probe_in_flight:
            return False
        self.probe_in_flight = True
        return True

    def cancel_probe(self) -> None:
        """Release the probe slot (the probe was shed before dispatch)."""
        self.probe_in_flight = False

    # ------------------------------------------------------------------
    def record_success(self, batch_seconds: float | None = None,
                       now: float | None = None) -> None:
        """A dispatch completed; in half-open this resolves the probe.

        A probe only closes the circuit when its own latency is within
        the blowout bound — a straggling deployment keeps its circuit
        open (re-probed each ``RESET_TIMEOUT``) until it actually
        recovers.  A closing probe starts a fresh slate: its latency
        seeds the EWMA, and the baseline stays.
        """
        now = self.clock() if now is None else now
        if batch_seconds is not None:
            batch_seconds = float(batch_seconds)
        if self.state == HALF_OPEN:
            if self._latency_blown(batch_seconds):
                self._move(OPEN, "latency", now)
                return
            self.ewma_latency = batch_seconds
            self.successes += 1
            self.consecutive_failures = 0
            self._move(CLOSED, "probe_ok", now)
            return
        self.successes += 1
        self.consecutive_failures = 0
        if batch_seconds is not None:
            self.ewma_latency = (
                batch_seconds if self.ewma_latency is None else
                (1.0 - LATENCY_ALPHA) * self.ewma_latency
                + LATENCY_ALPHA * batch_seconds)
        if self.state == CLOSED and self._latency_blown(self.ewma_latency):
            self._move(OPEN, "latency", now)

    def record_failure(self, now: float | None = None) -> None:
        """A dispatch failed; may open the circuit."""
        now = self.clock() if now is None else now
        self.failures += 1
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            self._move(OPEN, "probe_failed", now)
        elif (self.state == CLOSED
              and self.consecutive_failures >= FAILURE_THRESHOLD):
            self._move(OPEN, "failures", now)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        return {"state": self.state,
                "transitions": len(self.transitions),
                "consecutive_failures": self.consecutive_failures,
                "failures": self.failures,
                "successes": self.successes,
                "ewma_latency": self.ewma_latency,
                "baseline_latency": self.baseline,
                "probe_in_flight": self.probe_in_flight}


class DeploymentFaultInjector:
    """Fires a :class:`~repro.runtime.faults.FaultPlan`'s gateway events
    at one deployment's dispatch boundaries.

    Attached to the deployment's :class:`~repro.serving.service.
    ForecastService`, which calls :meth:`on_dispatch` before every batch
    forward and :meth:`scale_service_time` on every charge.  ``fired``
    mirrors :class:`~repro.runtime.faults.FaultyTransport.fired`: each
    one-shot event triggers exactly once, so restarts do not refire a
    crash that already happened.
    """

    def __init__(self, deployment: str, plan):
        self.deployment = str(deployment)
        self.plan = plan
        self._events = tuple(plan.gateway_events(self.deployment))
        self.fired: set[int] = set()
        self.dispatches = 0
        self.inserts = 0
        self.dead = False
        self.crashes = 0
        self.corruptions = 0

    # ------------------------------------------------------------------
    def on_dispatch(self, batch_size: int) -> None:
        """Called before a batch forward; raises
        :class:`~repro.utils.errors.SessionFailure` while the session is
        down (a fired ``session_crash`` keeps it down until the
        deployment restarts)."""
        ordinal = self.dispatches
        self.dispatches += 1
        for i, ev in self._events:
            if (ev.kind == "session_crash" and i not in self.fired
                    and ordinal >= ev.request):
                self.fired.add(i)
                self.dead = True
                self.crashes += 1
        if self.dead:
            raise SessionFailure(
                f"deployment {self.deployment!r} session is down "
                f"(dispatch {ordinal})")

    def scale_service_time(self, seconds: float) -> float:
        """Stretch the current dispatch's service charge through any
        active ``session_straggler`` range (dispatch ordinals)."""
        ordinal = self.dispatches - 1
        for _, ev in self._events:
            if ev.kind == "session_straggler" and ev.active_at(ordinal):
                seconds *= ev.slowdown
        return seconds

    def revive(self) -> None:
        """The deployment restarted its session; fail-fast mode ends."""
        self.dead = False

    # ------------------------------------------------------------------
    def maybe_corrupt(self, cache, key: tuple) -> bool:
        """Called after each result-cache insertion for this deployment;
        fires due ``store_corruption`` events by flipping bytes in the
        just-stored entry.  Returns whether a corruption fired."""
        ordinal = self.inserts
        self.inserts += 1
        hit = False
        for i, ev in self._events:
            if (ev.kind == "store_corruption" and i not in self.fired
                    and ordinal >= ev.request):
                self.fired.add(i)
                cache.corrupt(key)
                self.corruptions += 1
                hit = True
        return hit

    def describe(self) -> dict:
        return {"events": len(self._events), "fired": sorted(self.fired),
                "dispatches": self.dispatches, "dead": self.dead,
                "crashes": self.crashes, "corruptions": self.corruptions}


class GatewayResilience:
    """Per-gateway resilience state: breakers, injectors, counters.

    Every gateway owns one; each deployment registers once, when the
    gateway adds it.
    """

    def __init__(self, clock: Callable[[], float], *, fault_plan=None):
        self.clock = clock
        self.fault_plan = fault_plan
        self.breakers: dict[str, CircuitBreaker] = {}
        self.injectors: dict[str, DeploymentFaultInjector] = {}
        self.degraded_stale = 0
        self.degraded_fallback = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    def register(self, deployment: str,
                 baseline: float | None = None) -> None:
        """Create the deployment's breaker (and injector, when the fault
        plan schedules events for it)."""
        deployment = str(deployment)
        self.breakers[deployment] = CircuitBreaker(
            deployment, self.clock, baseline=baseline)
        if (self.fault_plan is not None
                and self.fault_plan.gateway_events(deployment)):
            self.injectors[deployment] = DeploymentFaultInjector(
                deployment, self.fault_plan)

    def breaker(self, deployment: str) -> CircuitBreaker:
        return self.breakers[str(deployment)]

    def injector(self, deployment: str) -> DeploymentFaultInjector | None:
        return self.injectors.get(str(deployment))

    # ------------------------------------------------------------------
    def transitions(self, deployment: str | None = None) -> list[dict]:
        """All recorded circuit transitions (one deployment's, or every
        deployment's merged in time order) as plain dicts — the chaos
        tests' determinism pin."""
        if deployment is not None:
            return [t.to_dict()
                    for t in self.breaker(deployment).transitions]
        merged = [t for b in self.breakers.values() for t in b.transitions]
        merged.sort(key=lambda t: (t.at, t.deployment))
        return [t.to_dict() for t in merged]

    def describe(self) -> dict:
        return {
            "breakers": {n: b.describe()
                         for n, b in sorted(self.breakers.items())},
            "injectors": {n: i.describe()
                          for n, i in sorted(self.injectors.items())},
            "degraded_stale": self.degraded_stale,
            "degraded_fallback": self.degraded_fallback,
            "restarts": self.restarts,
        }
