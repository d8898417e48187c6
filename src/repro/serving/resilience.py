"""Self-healing serving: health monitoring, circuit breakers, degradation.

PR 5 taught *training* to survive injected faults; this module does the
same for the gateway.  The pieces compose on the gateway's shared clock,
so every failure, trip, probe and recovery is exactly as reproducible as
the request schedule that caused it:

- :class:`DeploymentFaultInjector` consumes the serving-side events of a
  :class:`~repro.runtime.faults.FaultPlan` (``session_crash``,
  ``session_straggler``, ``store_corruption``) and fires them at a
  deployment's dispatch boundaries — chaos composes with
  :class:`~repro.serving.loadgen.GatewayLoadGenerator` traffic.
- :class:`HealthMonitor` tracks consecutive dispatch failures and an
  EWMA of per-batch service time against a baseline.
- :class:`CircuitBreaker` is the classic closed → open → half-open
  machine: it opens on a failure streak or an EWMA latency blowout,
  stays open for ``reset_timeout`` clock seconds, then admits exactly
  one probe; a healthy probe closes it, anything else re-opens it.
  Every transition is recorded as a :class:`CircuitTransition` (the
  chaos tests pin the full transition list bit-for-bit across reruns).
- :class:`ResiliencePolicy` bundles the knobs, and
  :func:`degradation_rung` is the one recovery decision, a pure function
  the gateway executes.  A request its deployment cannot serve (circuit
  open, or its dispatch failed) walks the ladder: a stale-but-
  fingerprint-matching result-cache entry, the named fallback
  deployment, or an explicit failure — never a hang, never a silent
  drop.  The breaker alone decides when the deployment is probed again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

from repro.utils.errors import SessionFailure

#: Circuit breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for the gateway's circuit breakers.

    Parameters
    ----------
    failure_threshold:
        consecutive failed dispatches that open a deployment's circuit.
    latency_blowout:
        the circuit also opens when the EWMA batch service time exceeds
        ``latency_blowout`` x the deployment's baseline estimate.
    latency_alpha:
        EWMA smoothing for the health monitor's latency track.
    reset_timeout:
        clock seconds an open circuit waits before admitting a probe.
    """

    failure_threshold: int = 2
    latency_blowout: float = 4.0
    latency_alpha: float = 0.3
    reset_timeout: float = 0.05

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, "
                             f"got {self.failure_threshold}")
        if self.latency_blowout <= 1.0:
            raise ValueError(f"latency_blowout must exceed 1.0, "
                             f"got {self.latency_blowout}")
        if not 0.0 < self.latency_alpha <= 1.0:
            raise ValueError(f"latency_alpha must be in (0, 1], "
                             f"got {self.latency_alpha}")
        if self.reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be positive, "
                             f"got {self.reset_timeout}")


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


class HealthMonitor:
    """Failure streaks + EWMA service latency for one deployment.

    ``baseline`` anchors the latency-blowout test; it is seeded from the
    admission controller's synthetic service-time estimate when one
    exists, otherwise from the first observation.
    """

    def __init__(self, *, alpha: float = 0.3,
                 baseline: float | None = None):
        self.alpha = float(alpha)
        self.baseline = None if baseline is None else float(baseline)
        self.ewma_latency: float | None = None
        self.consecutive_failures = 0
        self.failures = 0
        self.successes = 0

    def observe_latency(self, seconds: float) -> None:
        # The baseline is only ever seeded explicitly (from a synthetic
        # service-time model): measured wall latencies are too noisy to
        # anchor a blowout test, so unseeded monitors never trip on
        # latency — only on failure streaks.
        seconds = float(seconds)
        if self.ewma_latency is None:
            self.ewma_latency = seconds
        else:
            a = self.alpha
            self.ewma_latency = (1.0 - a) * self.ewma_latency + a * seconds

    def record_success(self) -> None:
        self.successes += 1
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        self.failures += 1
        self.consecutive_failures += 1

    def latency_blown(self, factor: float,
                      seconds: float | None = None) -> bool:
        """Whether ``seconds`` (default: the EWMA) exceeds ``factor`` x
        baseline.  False until a baseline exists — never trips blind."""
        if self.baseline is None or self.baseline <= 0:
            return False
        value = self.ewma_latency if seconds is None else float(seconds)
        return value is not None and value > factor * self.baseline

    def reset(self, latency: float | None = None) -> None:
        """Fresh slate after a recovery (keeps the baseline)."""
        self.consecutive_failures = 0
        self.ewma_latency = None if latency is None else float(latency)


class CircuitBreaker:
    """Closed → open → half-open breaker for one deployment.

    All timing runs on the gateway clock, and probes are scheduled
    deterministically: an open circuit flips to half-open on the first
    request at least ``reset_timeout`` after it opened, and half-open
    admits exactly one in-flight probe at a time.
    """

    def __init__(self, deployment: str, policy: ResiliencePolicy,
                 clock: Callable[[], float], *,
                 baseline: float | None = None):
        self.deployment = str(deployment)
        self.policy = policy
        self.clock = clock
        self.monitor = HealthMonitor(alpha=policy.latency_alpha,
                                     baseline=baseline)
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

    # ------------------------------------------------------------------
    def before_request(self, now: float | None = None) -> str:
        """The effective state for a request arriving now (applies the
        open -> half-open timeout transition)."""
        now = self.clock() if now is None else now
        if (self.state == OPEN
                and now - self.opened_at >= self.policy.reset_timeout):
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
        open (re-probed each ``reset_timeout``) until it actually
        recovers.
        """
        now = self.clock() if now is None else now
        if self.state == HALF_OPEN:
            if batch_seconds is not None and self.monitor.latency_blown(
                    self.policy.latency_blowout, batch_seconds):
                self._move(OPEN, "latency", now)
                return
            self.monitor.reset(latency=batch_seconds)
            self.monitor.record_success()
            self._move(CLOSED, "probe_ok", now)
            return
        self.monitor.record_success()
        if batch_seconds is not None:
            self.monitor.observe_latency(batch_seconds)
        if (self.state == CLOSED
                and self.monitor.latency_blown(self.policy.latency_blowout)):
            self._move(OPEN, "latency", now)

    def record_failure(self, now: float | None = None) -> None:
        """A dispatch failed; may open the circuit."""
        now = self.clock() if now is None else now
        self.monitor.record_failure()
        if self.state == HALF_OPEN:
            self._move(OPEN, "probe_failed", now)
        elif (self.state == CLOSED
              and self.monitor.consecutive_failures
              >= self.policy.failure_threshold):
            self._move(OPEN, "failures", now)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        return {"state": self.state,
                "transitions": len(self.transitions),
                "consecutive_failures": self.monitor.consecutive_failures,
                "failures": self.monitor.failures,
                "successes": self.monitor.successes,
                "ewma_latency": self.monitor.ewma_latency,
                "baseline_latency": self.monitor.baseline,
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

    Every gateway owns one (the default :class:`ResiliencePolicy` when
    none is given); deployments register lazily.
    """

    def __init__(self, policy: ResiliencePolicy,
                 clock: Callable[[], float], *, fault_plan=None):
        self.policy = policy
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
        if deployment not in self.breakers:
            self.breakers[deployment] = CircuitBreaker(
                deployment, self.policy, self.clock, baseline=baseline)
        elif baseline is not None:
            monitor = self.breakers[deployment].monitor
            if monitor.baseline is None:
                monitor.baseline = float(baseline)
        if (self.fault_plan is not None and deployment not in self.injectors
                and self.fault_plan.gateway_events(deployment)):
            self.injectors[deployment] = DeploymentFaultInjector(
                deployment, self.fault_plan)

    def breaker(self, deployment: str) -> CircuitBreaker:
        deployment = str(deployment)
        if deployment not in self.breakers:
            self.register(deployment)
        return self.breakers[deployment]

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
            "policy": asdict(self.policy),
            "breakers": {n: b.describe()
                         for n, b in sorted(self.breakers.items())},
            "injectors": {n: i.describe()
                          for n, i in sorted(self.injectors.items())},
            "degraded_stale": self.degraded_stale,
            "degraded_fallback": self.degraded_fallback,
            "restarts": self.restarts,
        }
