"""The multi-tenant serving gateway: one front door over many models.

:class:`Gateway` composes the pieces the package docstring lists — named
deployments, a tenant manager, an admission controller and an optional
result cache.  Request events are counted once, on the tenant;
:class:`GatewayStats` only sums them.

Every request flows ``authenticate -> quota -> cache -> circuit ->
admission -> micro-batch queue``; each stage that refuses produces a
terminal :class:`GatewayResponse` with an explicit status, so the load
generator can separate goodput from shed, quota and cache traffic
exactly.

**One recovery path.**  A request its deployment cannot serve — refused
at submit because the circuit is open, or failed in dispatch — walks the
degradation ladder: :func:`~repro.serving.resilience.degradation_rung`
(a pure function, testable without a gateway) picks stale cache,
fallback deployment or explicit failure, and :meth:`Gateway._degrade`
executes it.  A failed dispatch is never retried on the session that
failed it; the circuit breaker alone decides when the deployment is
probed again.  Every request reaches a queue through
:meth:`Gateway._enqueue` (admission -> queue -> cache key -> pending
table), so a fallback re-route is charged through admission
control and overload still sheds honestly.  A blue-green swap checks
green before the flip, so a broken green never takes traffic.

The gateway is single-threaded: callers :meth:`submit` and :meth:`poll`
from one thread.  Time keeps the subsystem's clock duality: it runs on a
:class:`~repro.serving.service.ManualClock` by default (bit-reproducible
schedules under the load generator) or on ``time.perf_counter`` for wall
operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.serving.gateway.admission import AdmissionController, ShedDecision
from repro.serving.gateway.deployments import Deployment, SwapRecord
from repro.serving.gateway.result_cache import ResultCache, cache_key
from repro.serving.gateway.tenancy import Tenant, TenantManager
from repro.serving.resilience import (
    CLOSED, GatewayResilience, HALF_OPEN, OPEN, degradation_rung)
from repro.serving.service import Forecast, ManualClock

@dataclass
class GatewayResponse:
    """The gateway's answer to one request.

    ``status`` is the request's fate: ``"admitted"`` (queued; the
    forecast arrives at a later :meth:`Gateway.poll`), ``"ok"``
    (completed, ``forecast`` attached), ``"cached"`` (served from the
    result cache, bitwise equal to recomputation), ``"shed"`` (admission
    control refused — see ``reason``), ``"rejected_quota"`` (the
    tenant's token bucket ran dry), ``"degraded"`` (answered, but from
    the degradation ladder — ``degraded_source`` names where: a stale
    cache entry or a fallback deployment), or ``"failed"`` (the ladder
    was exhausted; an explicit refusal, never a hang).
    """

    status: str
    tenant: str
    deployment: str
    version: str
    request_id: int | None = None
    forecast: Forecast | None = None
    cached: bool = False
    reason: str = ""
    degraded_source: str = ""   # "stale_cache" | "fallback:<name>"

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached", "degraded")

    @property
    def latency(self) -> float:
        """Completion latency on the gateway clock (0.0 for cache hits
        and stale-cache degradations, which answer immediately)."""
        if self.status == "cached":
            return 0.0
        if self.forecast is None:
            raise RuntimeError(f"request {self.request_id} has no forecast "
                               f"yet (status {self.status!r})")
        return self.forecast.latency


def _tenant_total(field: str) -> property:
    return property(lambda self: sum(getattr(t.stats, field)
                                     for t in self._tenants))


class GatewayStats:
    """Aggregate request accounting across all tenants and deployments.

    A request event is recorded once, on its tenant; the per-request
    totals here are read-only sums over tenants.  Only ``swaps``, which
    belong to no tenant, are counted here.
    """

    requests = _tenant_total("submitted")
    admitted = _tenant_total("admitted")
    completed = _tenant_total("completed")
    cache_hits = _tenant_total("cache_hits")
    shed = _tenant_total("shed")
    quota_rejected = _tenant_total("quota_rejected")
    degraded = _tenant_total("degraded")
    failed = _tenant_total("failed")

    def __init__(self, tenants: TenantManager):
        self._tenants = tenants
        self.swaps = 0

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in (
            "requests", "admitted", "completed", "cache_hits", "shed",
            "quota_rejected", "swaps", "degraded", "failed")}


def _instant_forecast(request_id: int | None,
                      predictions: np.ndarray) -> Forecast:
    """A forecast answered without a dispatch (cache hit, stale entry);
    a request that never reached a queue has no id and reports -1."""
    return Forecast(request_id=-1 if request_id is None else request_id,
                    predictions=predictions, latency=0.0, queue_wait=0.0,
                    batch_size=0, deadline_missed=False)


@dataclass(eq=False)
class _PendingRecord:
    """Gateway-side bookkeeping for one request.

    The ticket is the (deployment, request_id) identity the caller is
    handed at admission: the first queue the record lands on (before
    that, the deployment asked for and no id).  A fallback re-route moves
    the request to another queue, but its completion always reports the
    original ticket, so callers match responses without knowing about
    recovery.
    """

    tenant: Tenant
    ticket_deployment: str
    ticket_version: str
    ticket_id: int | None = None
    window: np.ndarray | None = None
    deadline: float | None = None   # original absolute deadline
    key: tuple | None = None        # cache key for the queue it is on now
    degraded_source: str = ""       # set once re-routed to a fallback

    def response(self, status: str, **fields) -> GatewayResponse:
        return GatewayResponse(
            status=status, tenant=self.tenant.tenant_id,
            deployment=self.ticket_deployment, version=self.ticket_version,
            request_id=self.ticket_id, **fields)


class Gateway:
    """Multi-tenant, admission-controlled front end over model deployments.

    Parameters
    ----------
    clock:
        shared clock for queues, quotas, cache TTLs and latency stamps;
        defaults to a fresh :class:`ManualClock` (simulated time).
    max_batch / service_time:
        batch cap and synthetic service-time model for every
        deployment.  A batch is whatever queued while the previous one
        ran, up to ``max_batch``: callers :meth:`submit` every request
        that is due, then :meth:`poll`.
    cache_ttl:
        result-cache lifetime; ``None`` disables caching entirely.
    fault_plan:
        a :class:`~repro.runtime.faults.FaultPlan` whose gateway events
        (``session_crash`` / ``session_straggler`` / ``store_corruption``)
        are injected into the named deployments — chaos that composes
        deterministically with the request schedule.
    """

    def __init__(self, *, clock: Callable[[], float] | None = None,
                 max_batch: int = 8,
                 service_time: Callable[[int], float] | None = None,
                 cache_ttl: float | None = None,
                 fault_plan: Any | None = None):
        self.clock = clock if clock is not None else ManualClock()
        self.max_batch = int(max_batch)
        self.service_time = service_time
        #: name -> deployment; dispatch walks them sorted by name.
        self.deployments: dict[str, Deployment] = {}
        self.tenants = TenantManager(self.clock)
        self.admission = AdmissionController(self.clock)
        self.cache = (ResultCache(ttl=cache_ttl, clock=self.clock)
                      if cache_ttl is not None else None)
        self.stats = GatewayStats(self.tenants)
        self.resilience = GatewayResilience(self.clock,
                                            fault_plan=fault_plan)
        #: (queue deployment, queue request_id) -> bookkeeping record
        self._pending: dict[tuple[str, int], _PendingRecord] = {}
        #: finished responses awaiting the next poll, by ticket
        self._completed: dict[tuple[str, int], GatewayResponse] = {}

    # ------------------------------------------------------------------
    # App factory: registration
    # ------------------------------------------------------------------
    def add_deployment(self, name: str, source: Any, *, version: str = "v1",
                       state: str = "warm",
                       fallback: str | None = None) -> Deployment:
        """Register a deployment (session, factory, or checkpoint path);
        ``fallback`` names the deployment that answers when its circuit
        opens."""
        name = str(name)
        if name in self.deployments:
            raise ValueError(f"deployment {name!r} already registered; use "
                             f"swap() to replace its checkpoint")
        dep = Deployment(name, source, version=version, state=state,
                         clock=self.clock, max_batch=self.max_batch,
                         service_time=self.service_time, fallback=fallback)
        self.deployments[name] = dep
        baseline = None
        if self.service_time is not None:
            # A synthetic service-time model makes projections exact from
            # the first request; measured deployments learn by EWMA.
            baseline = self.service_time(self.max_batch)
            self.admission.seed_estimate(dep.name, baseline)
        self.resilience.register(dep.name, baseline=baseline)
        injector = self.resilience.injector(dep.name)
        if injector is not None:
            dep.attach_injector(injector)
        return dep

    def add_tenant(self, tenant_id: str, *, api_key: str | None = None,
                   rate_qps: float | None = None) -> Tenant:
        """Register a tenant; the returned object's ``api_key`` is its
        credential for every data-plane call."""
        return self.tenants.register(tenant_id, api_key=api_key,
                                     rate_qps=rate_qps)

    def _deployment(self, name: str) -> Deployment:
        """The deployment registered as ``name``; a ``KeyError`` for an
        unknown one lists the registered names."""
        try:
            return self.deployments[str(name)]
        except KeyError:
            raise KeyError(f"unknown deployment {name!r}; registered: "
                           f"{sorted(self.deployments)}") from None

    # ------------------------------------------------------------------
    # Streaming observations (tenant-isolated)
    # ------------------------------------------------------------------
    def ingest(self, api_key: str, deployment: str, values: np.ndarray,
               timestamp_minutes: float) -> None:
        """Stream one observation row into the calling tenant's private
        store for ``deployment`` (created lazily, never shared)."""
        tenant = self.tenants.authenticate(api_key)
        dep = self._deployment(deployment).warm()
        store = tenant.stores.get(dep.name)
        if store is None:
            store = dep.new_store()
            tenant.stores[dep.name] = store
        store.ingest(values, timestamp_minutes)

    def _tenant_window(self, tenant: Tenant, dep: Deployment) -> np.ndarray:
        store = tenant.stores.get(dep.name)
        if store is None:
            raise RuntimeError(
                f"tenant {tenant.tenant_id!r} has streamed nothing into "
                f"deployment {dep.name!r}; ingest history or submit an "
                f"explicit window")
        return store.window(dep.session.horizon)

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    def submit(self, api_key: str, deployment: str,
               window: np.ndarray | None = None, *,
               deadline: float | None = None) -> GatewayResponse:
        """Run one request through auth -> quota -> cache -> admission.

        Returns a terminal response, or an ``"admitted"`` ticket whose
        forecast arrives from a later :meth:`poll`/:meth:`flush`.
        ``deadline`` is absolute clock time; a request without one never
        sheds on projection, only on the depth cap.
        """
        tenant = self.tenants.authenticate(api_key)
        dep = self._deployment(deployment).warm()
        now = self.clock()
        tenant.stats.submitted += 1
        rec = _PendingRecord(tenant, dep.name, dep.version)
        if not tenant.try_spend_token(now):
            tenant.stats.quota_rejected += 1
            return rec.response("rejected_quota", reason="token bucket empty")
        if window is None:
            window = self._tenant_window(tenant, dep)
        rec.window = window = dep.service.check_window(window)
        rec.deadline = deadline

        if self.cache is not None:
            rec.key = cache_key(dep.name, dep.version, window)
            hit = self.cache.get(rec.key)
            if hit is not None:
                tenant.stats.cache_hits += 1
                return rec.response(
                    "cached", cached=True,
                    forecast=_instant_forecast(rec.ticket_id, hit))

        # Circuit check (fresh cache hits above answer even when open).
        breaker = self.resilience.breaker(dep.name)
        state = breaker.before_request(now)
        probe = False
        if state == OPEN:
            return self._degrade(dep, rec, reason="circuit_open")
        if state == HALF_OPEN:
            probe = breaker.try_probe()
            if not probe:
                return self._degrade(dep, rec, reason="probe_in_flight")
            # This request *is* the probe: restart a crashed session
            # first so the probe tests actual recovery.
            injector = dep.fault_injector
            if injector is not None and injector.dead:
                dep.restart()
                self.resilience.restarts += 1

        decision = self._enqueue(dep, rec)
        if decision is not None:
            if probe:
                breaker.cancel_probe()
            tenant.stats.shed += 1
            return rec.response("shed", reason=decision.reason)
        return rec.response("admitted")

    def _enqueue(self, dep: Deployment,
                 rec: _PendingRecord) -> ShedDecision | None:
        """The one way onto a queue, for first submission and fallback
        re-route: admission -> queue -> cache key -> pending table.
        Returns the shed decision if admission control refuses (nothing
        is queued), else ``None``.  A record's first queue is its ticket
        and its tenant's one admission.

        :meth:`submit` has checked the window, and a fallback has its
        primary's model interface (:meth:`_fallback_for`), so a re-route
        needs no second check."""
        svc = dep.service
        decision = self.admission.admit(
            svc.queue, tenant=rec.tenant.tenant_id, deployment=dep.name,
            deadline=rec.deadline)
        if decision is not None:
            return decision
        rid = svc.queue.submit(rec.window, deadline=rec.deadline).request_id
        if rec.ticket_id is None:
            rec.ticket_deployment, rec.ticket_version = dep.name, dep.version
            rec.ticket_id = rid
            rec.tenant.stats.admitted += 1
        if rec.key is None and self.cache is not None:
            rec.key = cache_key(dep.name, dep.version, rec.window)
        self._pending[(dep.name, rid)] = rec
        return None

    # ------------------------------------------------------------------
    # Recovery: executing the ladder repro.serving.resilience picks
    # ------------------------------------------------------------------
    def _fallback_for(self, dep: Deployment) -> Deployment | None:
        """The deployment's named fallback, warmed, if it exists, is not
        the deployment itself, takes the same windows and answers the
        same shape (as a blue-green green must), and has a closed
        circuit.  Looking has effects (a cold fallback warms, its breaker
        applies its reset timer), so callers look only once nothing
        cheaper has decided."""
        if (dep.fallback is None or dep.fallback == dep.name
                or dep.fallback not in self.deployments):
            return None
        fdep = self.deployments[dep.fallback].warm()
        a, b = dep.session, fdep.session
        if ((a.horizon, a.num_nodes, a.in_features)
                != (b.horizon, b.num_nodes, b.in_features)):
            return None
        if self.resilience.breaker(fdep.name).before_request() != CLOSED:
            return None
        return fdep

    def _degrade(self, dep: Deployment, rec: _PendingRecord, *,
                 reason: str) -> GatewayResponse | None:
        """Walk the degradation ladder for a request ``dep`` cannot
        serve: refused at submit (circuit open or probe slot taken; no
        ticket yet) or failed in dispatch.  Returns a terminal response;
        or, once the request is on the fallback queue, a submit-time
        request's ``"admitted"`` ticket and ``None`` for one already
        ticketed (its completion arrives ``"degraded"`` under that
        original ticket)."""
        ticketed = rec.ticket_id is not None
        # A key exists only with a cache; stale reads are integrity-verified.
        stale = self.cache.get_stale(rec.key) if rec.key is not None else None
        fdep = self._fallback_for(dep) if stale is None else None
        if fdep is not None:
            rec.key = None      # the primary's; _enqueue keys the fallback's
        rerouted = fdep is not None and self._enqueue(fdep, rec) is None
        rung = degradation_rung(stale_available=stale is not None,
                                fallback_ready=fdep is not None,
                                fallback_admitted=rerouted)
        stats = rec.tenant.stats
        if rung == "stale_cache":
            stats.degraded += 1
            self.resilience.degraded_stale += 1
            return rec.response(
                "degraded", reason=reason, degraded_source=rung,
                forecast=_instant_forecast(rec.ticket_id, stale))
        if rung == "fallback":
            rec.degraded_source = f"fallback:{fdep.name}"
            if ticketed:
                return None
            return rec.response("admitted", reason=reason,
                                degraded_source=rec.degraded_source)
        stats.failed += 1
        return rec.response("failed", reason=reason)

    def _handle_failures(self, dep: Deployment) -> None:
        """Resolve dispatches that raised SessionFailure: each failed
        batch feeds the circuit breaker, and each of its requests walks
        the degradation ladder.  Nothing is ever silently dropped."""
        for reqs, _exc in dep.service.take_failed():
            self.resilience.breaker(dep.name).record_failure()
            for req in reqs:
                rec = self._pending.pop((dep.name, req.request_id), None)
                if rec is None:
                    continue    # queued on the service, not through us
                resp = self._degrade(dep, rec, reason="session_failure")
                if resp is not None:
                    self._completed[resp.deployment, resp.request_id] = resp

    def request(self, api_key: str, deployment: str,
                window: np.ndarray | None = None, *,
                deadline: float | None = None) -> GatewayResponse:
        """Synchronous request: submit, then dispatch the deployment's
        queue (coalescing with anything pending) and return this
        request's completed response.  Other requests' completions stay
        buffered for :meth:`poll`/:meth:`flush`."""
        resp = self.submit(api_key, deployment, window, deadline=deadline)
        if resp.status != "admitted":
            return resp
        ticket = (resp.deployment, resp.request_id)
        # Its own queue first; recovery may have re-routed the request to
        # a fallback, so widen until it lands.
        self._drain_deployment(self.deployments[resp.deployment])
        found = self._completed.pop(ticket, None) or self._drain_all(ticket)
        if found is None:
            raise RuntimeError(                            # pragma: no cover
                f"request {resp.request_id} never completed")
        return found

    # ------------------------------------------------------------------
    # Completion plumbing
    # ------------------------------------------------------------------
    def _absorb(self, dep: Deployment, forecasts: list[Forecast]) -> None:
        """Attribute completed forecasts to tenants, fill the cache, and
        buffer the responses for the next poll.  Completions report the
        request's original ticket identity, even when recovery moved it
        between queues."""
        for fc in forecasts:
            rec = self._pending.pop((dep.name, fc.request_id), None)
            if rec is None:
                continue    # queued on the service, not through us
            stats = rec.tenant.stats
            stats.completed += 1
            stats.deadline_misses += int(fc.deadline_missed)
            if self.cache is not None and rec.key is not None:
                self.cache.put(rec.key, fc.predictions)
                if dep.fault_injector is not None:
                    dep.fault_injector.maybe_corrupt(self.cache, rec.key)
            if rec.degraded_source:
                stats.degraded += 1
                self.resilience.degraded_fallback += 1
            self._completed[rec.ticket_deployment, rec.ticket_id] = \
                rec.response("degraded" if rec.degraded_source else "ok",
                             forecast=fc, degraded_source=rec.degraded_source)

    def _observed(self, dep: Deployment, dispatch: Callable[[], Any], *,
                  feed_breaker: bool) -> Any:
        """Run ``dispatch`` (a call that pushes ``dep``'s queue through its
        service) and feed back what each served batch cost: to the
        admission estimate and, with ``feed_breaker``, to the circuit
        breaker.  A queue drain feeds both; the drain inside a blue-green
        swap has only ever fed the estimate.  Failed batches are fed by
        :meth:`_handle_failures`, after these: a crashed session stays
        down until restarted, so within one drain failures are always
        the suffix."""
        result = dispatch()
        svc = dep.service
        if svc.last_served:             # an idle poll has nothing to feed
            breaker = self.resilience.breaker(dep.name)
            now = self.clock()
            for size, seconds in svc.last_served:
                self.admission.observe(dep.name, seconds,
                                       full=size == svc.queue.max_batch)
                if feed_breaker:
                    breaker.record_success(seconds, now)
        return result

    def _drain_deployment(self, dep: Deployment) -> None:
        """The gateway's one dispatch site."""
        svc = dep.service
        if svc is None:
            return
        self._absorb(dep, self._observed(dep, svc.poll, feed_breaker=True))
        self._handle_failures(dep)

    def _dispatch_pending(self) -> None:
        """One pass: everything pending on every deployment, in name
        order (simulated-clock schedules depend on it)."""
        for name in sorted(self.deployments):
            self._drain_deployment(self.deployments[name])

    def _drain_all(self, ticket: tuple | None = None
                   ) -> GatewayResponse | None:
        """Pass until every queue is empty, or until ``ticket``'s response
        lands (it is taken and returned).  Failure recovery can requeue
        work mid-pass (fallback re-routes), so one pass is not enough; the
        loop is bounded because every failed dispatch feeds a breaker and
        circuits open."""
        for _ in range(64):
            self._dispatch_pending()
            found = self._completed.pop(ticket, None)
            if found is not None or not any(
                    d.in_flight for d in self.deployments.values()):
                return found
        return None

    def _take_completed(self) -> list[GatewayResponse]:
        done = list(self._completed.values())
        self._completed.clear()
        return done

    def poll(self) -> list[GatewayResponse]:
        """Dispatch everything pending on every deployment, once; returns
        (and drains) newly completed responses.  What failure recovery
        requeues along the way waits for the next poll."""
        self._dispatch_pending()
        return self._take_completed()

    def flush(self) -> list[GatewayResponse]:
        """:meth:`poll` until nothing is pending, including what failure
        recovery requeues along the way."""
        self._drain_all()
        return self._take_completed()

    # ------------------------------------------------------------------
    # Blue-green swap
    # ------------------------------------------------------------------
    def swap(self, deployment: str, source: Any, *,
             version: str) -> SwapRecord:
        """Atomically swap ``deployment`` to a new checkpoint ``version``.

        :meth:`Deployment.swap` builds and checks green first; a green
        that does not fit the model interface or does not answer a zero
        window with finite values raises, with blue serving and its queue
        intact.  Then the blue queue drains (its completions are delivered
        to their tenants at the next poll — zero dropped in-flight
        requests), the service flips to green, and the deployment's cache
        entries are invalidated.
        """
        dep = self._deployment(deployment).warm()
        record, drained = self._observed(
            dep, lambda: dep.swap(source, version=version),
            feed_breaker=False)
        self._absorb(dep, drained)
        self._handle_failures(dep)
        if self.cache is not None:
            self.cache.invalidate(dep.name)
        self.stats.swaps += 1
        return record

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """One introspection dict: gateway, deployments, tenants, cache."""
        return {
            "stats": self.stats.to_dict(),
            "deployments": {n: d.describe()
                            for n, d in sorted(self.deployments.items())},
            "tenants": self.tenants.per_tenant_stats(),
            "auth_failures": self.tenants.auth_failures,
            "shed_by_reason": self.admission.shed_by_reason(),
            "shed_by_tenant": self.admission.shed_by_tenant(),
            "cache": (self.cache.stats.to_dict()
                      if self.cache is not None else None),
            "resilience": self.resilience.describe(),
        }
