"""Reproducible load generation against a :class:`ForecastService`.

Two canonical harnesses from the serving-systems literature:

- **closed loop** — ``concurrency`` clients, each submitting its next
  request the moment (plus ``think_time``) its previous one completes.
  Measures sustainable throughput: offered load adapts to the service.
- **open loop** — requests arrive on a fixed schedule (Poisson or
  uniform) at ``rate_qps`` regardless of completions.  Measures latency
  under a given offered load, including queueing collapse past capacity.

The generator is event-driven over the service's
:class:`~repro.serving.service.ManualClock`: it advances simulated time
to each arrival, and every dispatch advances it by the batch's service
time, so the schedule of batches is an exact function of (seed, knobs,
service times).  All three loops follow the one contract a
work-conserving queue asks of its driver (:func:`_serve_arrivals`):
submit every arrival that is due, then poll.  With the
service's default *measured* service times, latency percentiles are
honest wall-clock numbers; with a synthetic ``service_time`` model the
entire run — every latency, every batch size — is bit-reproducible,
which the determinism test exploits.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.serving.service import Forecast, ForecastService, ManualClock
from repro.utils.errors import ShapeError


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generation run against a service."""

    scenario: str
    mode: str                    # "closed" | "open"
    requests: int
    duration_seconds: float      # simulated clock span of the run
    qps: float                   # completed requests / duration
    offered_qps: float | None    # open loop only: the arrival rate
    latency_p50: float           # seconds, on the service clock
    latency_p95: float
    latency_p99: float
    latency_mean: float
    latency_max: float
    queue_wait_mean: float
    mean_batch_size: float
    batches: int
    deadline_misses: int
    utilization: float           # model-busy seconds / duration
    seed: int
    failovers: int = 0           # shard failovers observed during the run
    failover_p99: float = 0.0    # p99 failover rebuild latency (wall s)

    def to_dict(self) -> dict:
        return {k: (v if not isinstance(v, float) else float(v))
                for k, v in self.__dict__.items()}

    def summary(self) -> str:
        offered = (f" (offered {self.offered_qps:.0f} qps)"
                   if self.offered_qps else "")
        return (f"{self.scenario}: {self.requests} reqs in "
                f"{self.duration_seconds * 1e3:.1f} ms -> "
                f"{self.qps:.0f} qps{offered}, latency p50/p95/p99 "
                f"{self.latency_p50 * 1e3:.2f}/{self.latency_p95 * 1e3:.2f}/"
                f"{self.latency_p99 * 1e3:.2f} ms, mean batch "
                f"{self.mean_batch_size:.1f}, misses {self.deadline_misses}")


@dataclass(kw_only=True)
class GatewayLoadReport(LoadReport):
    """A :class:`GatewayLoadGenerator` run: the service-level report plus
    what only a gateway produces."""

    goodput_qps: float           # good answers (computed or cached) / duration
    shed_rate: float             # admission-shed / submitted
    per_tenant: dict             # tenant -> breakdown
    degraded: int                # stale-cache / fallback answers
    failed: int                  # degradation ladder exhausted

    def summary(self) -> str:
        return (f"{super().summary()}, goodput {self.goodput_qps:.0f} qps, "
                f"shed {self.shed_rate:.1%}")


def _arrival_gaps(rng: np.random.Generator, arrival: str, rate_qps: float,
                  requests: int) -> np.ndarray:
    """Seconds between ``requests`` arrivals at ``rate_qps``: seeded
    exponential gaps (``"poisson"``) or a fixed period (``"uniform"``,
    which draws nothing)."""
    if arrival == "poisson":
        return rng.exponential(1.0 / rate_qps, size=requests)
    if arrival == "uniform":
        return np.full(requests, 1.0 / rate_qps)
    raise ValueError(f"arrival must be 'poisson' or 'uniform', "
                     f"got {arrival!r}")


def _latency_fields(latencies: list[float],
                    computed: list[Forecast]) -> dict:
    """The report's latency percentiles over ``latencies``, and queue
    wait and batch size over the ``computed`` forecasts (cache hits
    answer without either)."""
    lat = np.array(latencies, dtype=np.float64)
    waits = np.array([fc.queue_wait for fc in computed], dtype=np.float64)
    sizes = np.array([fc.batch_size for fc in computed], dtype=np.float64)
    p50, p95, p99 = (np.percentile(lat, [50, 95, 99])
                     if len(lat) else (np.nan,) * 3)
    return dict(
        latency_p50=float(p50), latency_p95=float(p95),
        latency_p99=float(p99),
        latency_mean=float(lat.mean()) if len(lat) else float("nan"),
        latency_max=float(lat.max()) if len(lat) else float("nan"),
        queue_wait_mean=float(waits.mean()) if len(waits) else float("nan"),
        mean_batch_size=float(sizes.mean()) if len(sizes) else 0.0)


def _serve_arrivals(clock: ManualClock, arrivals: list[tuple],
                    submit: Callable[[tuple], Any],
                    poll: Callable[[], list]) -> list:
    """Run an arrival schedule against something with ``submit``/``poll``.

    ``arrivals`` is a heap of tuples led by the scheduled time (a sorted
    list is one; a closed loop's ``poll`` pushes follow-ups onto it).
    Each round advances the clock to the next scheduled arrival (a clock
    the last dispatch already carried past it stays put), submits **every**
    arrival that is due and only then polls.  Polling after each submit
    instead would hand a work-conserving queue one request at a time and
    dispatch batches of one for ever, however deep the backlog.

    Returns what ``submit`` answered on the spot (``None`` = queued) and
    what ``poll`` completed, in order.
    """
    out: list = []
    while arrivals:
        clock.advance_to(arrivals[0][0])
        while arrivals and arrivals[0][0] <= clock.now:
            answer = submit(heapq.heappop(arrivals))
            if answer is not None:
                out.append(answer)
        out.extend(poll())
    return out


class _SeededLoad:
    """What both generators share: simulated time they own, and a seeded
    stream of request windows drawn from a pool."""

    def __init__(self, target: Any, windows: np.ndarray, seed: int):
        if not isinstance(target.clock, ManualClock):
            raise TypeError(f"{type(self).__name__} needs a "
                            f"{type(target).__name__} on a ManualClock; it "
                            f"drives simulated time explicitly")
        windows = np.asarray(windows)
        if windows.ndim != 4 or len(windows) == 0:
            raise ShapeError(f"windows pool must be non-empty "
                             f"[pool, horizon, nodes, features], "
                             f"got {windows.shape}")
        self.clock: ManualClock = target.clock
        self.windows = windows
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)

    def _pick_window(self) -> np.ndarray:
        return self.windows[int(self.rng.integers(len(self.windows)))]


class LoadGenerator(_SeededLoad):
    """Drives a :class:`ForecastService` with a seeded request stream.

    Parameters
    ----------
    service:
        the service under test; must run on a
        :class:`~repro.serving.service.ManualClock` (the generator owns
        time).
    windows:
        ``[pool, horizon, nodes, features]`` standardized input windows;
        each request samples one uniformly (seeded).
    seed:
        RNG seed for window choice and arrival schedules.
    """

    def __init__(self, service: ForecastService, windows: np.ndarray, *,
                 seed: int = 0):
        super().__init__(service, windows, seed)
        self.service = service

    # ------------------------------------------------------------------
    def _submit(self, deadline: float | None) -> int:
        """Submit one seeded request, due ``deadline`` seconds from now."""
        return self.service.submit(
            self._pick_window(),
            deadline=None if deadline is None else self.clock.now + deadline)

    def _mark(self) -> tuple[float, int, int]:
        """Busy seconds, batches and failovers (none for sessions without
        a failover path) the service has logged so far."""
        svc = self.service
        return (svc.stats.busy_seconds, svc.stats.batches,
                len(svc.failover_events))

    def _report(self, scenario: str, mode: str, done: list[Forecast],
                start: float, offered_qps: float | None,
                mark: tuple[float, int, int]) -> LoadReport:
        duration = self.clock.now - start
        busy_before, batches_before, failovers_before = mark
        failover_secs = np.array(
            [ev.seconds for ev in
             self.service.failover_events[failovers_before:]],
            dtype=np.float64)
        batches = self.service.stats.batches - batches_before
        busy = self.service.stats.busy_seconds - busy_before
        return LoadReport(
            scenario=scenario, mode=mode, requests=len(done),
            duration_seconds=duration,
            qps=len(done) / duration if duration > 0 else float("inf"),
            offered_qps=offered_qps,
            **_latency_fields([fc.latency for fc in done], done),
            batches=batches,
            deadline_misses=sum(fc.deadline_missed for fc in done),
            utilization=busy / duration if duration > 0 else 0.0,
            seed=self.seed,
            failovers=len(failover_secs),
            failover_p99=(float(np.percentile(failover_secs, 99))
                          if len(failover_secs) else 0.0))

    # ------------------------------------------------------------------
    def closed_loop(self, *, requests: int, concurrency: int = 8,
                    think_time: float = 0.0, deadline: float | None = None,
                    scenario: str = "closed") -> LoadReport:
        """``concurrency`` clients in lock-step with their completions."""
        if requests < 1 or concurrency < 1:
            raise ValueError("requests and concurrency must be >= 1")
        svc = self.service
        start, mark = self.clock.now, self._mark()
        # (time, tiebreak, client) submission events; each completion
        # frees its client to submit again ``think_time`` later.
        scheduled = min(concurrency, requests)
        events: list[tuple[float, int, int]] = [
            (start, c, c) for c in range(scheduled)]
        owner: dict[int, int] = {}

        def submit(event: tuple[float, int, int]) -> None:
            owner[self._submit(deadline)] = event[2]

        def collect() -> list[Forecast]:
            nonlocal scheduled
            finished = svc.poll()
            for fc in finished:
                if scheduled < requests:
                    heapq.heappush(events, (self.clock.now + think_time,
                                            scheduled, owner[fc.request_id]))
                    scheduled += 1
            return finished

        done = _serve_arrivals(self.clock, events, submit, collect)
        return self._report(scenario, "closed", done, start, None, mark)

    # ------------------------------------------------------------------
    def open_loop(self, *, requests: int, rate_qps: float,
                  arrival: str = "poisson", deadline: float | None = None,
                  scenario: str = "open") -> LoadReport:
        """Fixed-rate arrivals, independent of completions."""
        if requests < 1:
            raise ValueError("requests must be >= 1")
        if rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        gaps = _arrival_gaps(self.rng, arrival, rate_qps, requests)
        svc = self.service
        start, mark = self.clock.now, self._mark()

        def submit(_event: tuple[float]) -> None:
            self._submit(deadline)

        done = _serve_arrivals(
            self.clock, [(float(t),) for t in start + np.cumsum(gaps)],
            submit, svc.poll)
        return self._report(scenario, "open", done, start, float(rate_qps),
                            mark)


# ---------------------------------------------------------------------------
# Gateway traffic: per-tenant open-loop streams with goodput/shed reporting
# ---------------------------------------------------------------------------
@dataclass
class TenantStream:
    """One tenant's open-loop arrival stream against one deployment.

    ``rate_qps`` is the stream's offered rate; ``deadline`` (relative
    seconds, optional) is stamped on every request and drives admission
    control's shed decisions.
    """

    api_key: str
    deployment: str
    rate_qps: float
    requests: int
    arrival: str = "poisson"        # "poisson" | "uniform"
    deadline: float | None = None

    def __post_init__(self):
        if self.rate_qps <= 0:
            raise ValueError(f"rate_qps must be positive, "
                             f"got {self.rate_qps}")
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.arrival not in ("poisson", "uniform"):
            raise ValueError(f"arrival must be 'poisson' or 'uniform', "
                             f"got {self.arrival!r}")


class GatewayLoadGenerator(_SeededLoad):
    """Drives a :class:`~repro.serving.gateway.Gateway` with per-tenant
    open-loop streams, reporting goodput, shed rate and per-tenant
    breakdowns on top of the usual latency percentiles.

    The generator owns simulated time exactly like :class:`LoadGenerator`
    (the gateway must run on a :class:`ManualClock`): per-stream arrival
    schedules are seeded, merged into one global timeline, and served
    due-arrivals-then-poll (:func:`_serve_arrivals`) — so with
    synthetic service-time models the entire multi-tenant run is
    bit-reproducible, shed decisions included.
    """

    def __init__(self, gateway: Any, windows: np.ndarray, *, seed: int = 0):
        super().__init__(gateway, windows, seed)
        self.gateway = gateway

    # ------------------------------------------------------------------
    def _merged_arrivals(self, streams: list[TenantStream],
                         start: float) -> list[tuple[float, int, int]]:
        """All streams' arrival times merged into one sorted timeline.

        Returns ``(time, tiebreak, stream_index)`` triples; the tiebreak
        keeps simultaneous arrivals in a deterministic order.  RNG draws
        happen per stream in stream order, so the schedule is a pure
        function of (seed, streams).
        """
        events: list[tuple[float, int, int]] = []
        seq = 0
        for i, stream in enumerate(streams):
            gaps = _arrival_gaps(self.rng, stream.arrival, stream.rate_qps,
                                 stream.requests)
            for t in start + np.cumsum(gaps):
                events.append((float(t), seq, i))
                seq += 1
        events.sort()
        return events

    # ------------------------------------------------------------------
    def open_loop(self, streams: list[TenantStream], *,
                  scenario: str = "gateway-open") -> GatewayLoadReport:
        """Run every stream's arrivals on one merged timeline."""
        if not streams:
            raise ValueError("need at least one TenantStream")
        gw = self.gateway
        start, mark = self.clock.now, self._mark()

        def submit(event: tuple[float, int, int]) -> Any:
            t, _, i = event
            stream = streams[i]
            # Deadlines anchor at the *scheduled* arrival, not the (possibly
            # later) clock: past capacity the service's dispatches push
            # simulated time ahead of the arrival schedule, so late requests
            # arrive with part of their budget already spent — which is what
            # makes admission control shed under genuine overload.
            deadline = (None if stream.deadline is None
                        else t + stream.deadline)
            resp = gw.submit(stream.api_key, stream.deployment,
                             self._pick_window(), deadline=deadline)
            return None if resp.status == "admitted" else resp

        responses = _serve_arrivals(
            self.clock, self._merged_arrivals(streams, start), submit,
            gw.poll)
        responses.extend(gw.flush())    # what recovery requeued last
        return self._report(scenario, streams, responses, start, mark)

    # ------------------------------------------------------------------
    def _mark(self) -> tuple[float, int]:
        """Busy seconds and batches summed over the live deployments."""
        live = [d.service.stats for d in self.gateway.deployments.values()
                if d.service is not None]
        return (sum(s.busy_seconds for s in live),
                sum(s.batches for s in live))

    def _report(self, scenario: str, streams: list[TenantStream],
                responses: list[Any], start: float,
                mark: tuple[float, int]) -> GatewayLoadReport:
        duration = self.clock.now - start
        (busy_now, batches_now), (busy0, batches0) = self._mark(), mark
        busy, batches = busy_now - busy0, batches_now - batches0
        good = [r for r in responses if r.ok]
        shed = [r for r in responses if r.status == "shed"]
        degraded = [r for r in responses if r.status == "degraded"]
        failed = [r for r in responses if r.status == "failed"]
        computed = [r for r in good if not r.cached]
        submitted = len(responses)
        offered = float(sum(s.rate_qps for s in streams))

        per_tenant: dict[str, dict] = {}
        for r in responses:
            t = per_tenant.setdefault(r.tenant, {
                "requests": 0, "completed": 0, "cache_hits": 0,
                "shed": 0, "quota_rejected": 0, "deadline_misses": 0,
                "degraded": 0, "failed": 0, "latencies": []})
            t["requests"] += 1
            if r.ok:
                t["completed"] += 1
                t["latencies"].append(r.latency)
                t["cache_hits"] += int(r.cached)
                t["degraded"] += int(r.status == "degraded")
                if r.forecast is not None and not r.cached:
                    t["deadline_misses"] += int(r.forecast.deadline_missed)
            elif r.status == "shed":
                t["shed"] += 1
            elif r.status == "rejected_quota":
                t["quota_rejected"] += 1
            elif r.status == "failed":
                t["failed"] += 1
        for t in per_tenant.values():
            lats = np.array(t.pop("latencies"), dtype=np.float64)
            t["goodput_qps"] = (t["completed"] / duration
                                if duration > 0 else 0.0)
            t["shed_rate"] = (t["shed"] / t["requests"]
                              if t["requests"] else 0.0)
            t["latency_p99"] = (float(np.percentile(lats, 99))
                                if len(lats) else float("nan"))

        return GatewayLoadReport(
            scenario=scenario, mode="open", requests=submitted,
            duration_seconds=duration,
            qps=len(good) / duration if duration > 0 else float("inf"),
            offered_qps=offered,
            **_latency_fields([r.latency for r in good],
                              [r.forecast for r in computed]),
            batches=batches,
            deadline_misses=sum(
                r.forecast.deadline_missed for r in computed),
            utilization=busy / duration if duration > 0 else 0.0,
            seed=self.seed,
            goodput_qps=len(good) / duration if duration > 0 else 0.0,
            shed_rate=len(shed) / submitted if submitted else 0.0,
            per_tenant=per_tenant,
            degraded=len(degraded), failed=len(failed))
