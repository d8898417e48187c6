"""The synchronous :class:`ForecastService` facade.

One object ties the serving subsystem together: a
:class:`~repro.serving.session.ModelSession` does the model work, a
:class:`~repro.serving.queue.MicroBatchQueue` coalesces whatever is
pending when the service next dispatches, and the service stamps
per-request latency/deadline accounting on a shared clock.

Time is explicit: the service runs on a :class:`ManualClock` by default
(simulated request time, *measured* model-service time — every batch
forward advances the clock by its real wall-clock duration), which makes
queueing behaviour reproducible while keeping latency numbers honest.
Pass ``clock=time.perf_counter`` for fully wall-clock operation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.serving.queue import ForecastRequest, MicroBatchQueue
from repro.utils.clock import ManualClock
from repro.utils.errors import SessionFailure, ShapeError


@dataclass
class Forecast:
    """One completed forecast.

    ``predictions`` is ``[horizon, nodes]`` in original signal units when
    the session has a scaler (standardized units otherwise) — the
    request's own row of its batch's answer, shared with no other
    request and with no buffer the session reuses, so it is safe to
    retain and to write.
    """

    request_id: int
    predictions: np.ndarray
    latency: float
    queue_wait: float
    batch_size: int
    deadline_missed: bool


@dataclass
class ServiceStats:
    """Aggregate accounting over a service's lifetime."""

    requests: int = 0
    batches: int = 0
    deadline_misses: int = 0
    busy_seconds: float = 0.0
    failures: int = 0           # requests whose dispatch raised SessionFailure
    failed_batches: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0


class ForecastService:
    """Synchronous online-forecast front door.

    ``forecast`` answers immediately (a batch of 1 on an empty queue);
    ``submit`` + ``poll`` run the micro-batched path: ``submit`` only
    enqueues, ``poll`` dispatches everything pending in FIFO batches of at
    most ``max_batch``, so callers submit every request that is due and
    then poll.  Both return :class:`Forecast` records with per-request
    latency measured on the service clock.
    """

    def __init__(self, session: Any, *, max_batch: int = 32,
                 clock: Callable[[], float] | None = None,
                 service_time: Callable[[int], float] | None = None):
        self.session = session
        self.clock = clock if clock is not None else ManualClock()
        # Synthetic service-time model: seconds a batch of n requests costs
        # on the (manual) clock.  None = measure real wall time.  A fixed
        # model makes whole load-generator schedules bit-reproducible.
        self.service_time = service_time
        self.queue = MicroBatchQueue(max_batch=max_batch, clock=self.clock)
        self.stats = ServiceStats()
        self._completed: list[Forecast] = []
        # Resilience hooks (repro.serving.resilience): the injector fires
        # planned session_crash/session_straggler events at dispatch
        # boundaries; failed batches are buffered for take_failed() so the
        # gateway can degrade them — never silently dropped.
        self.fault_injector = None
        #: ``(size, seconds)`` of every batch the latest ``poll`` /
        #: ``forecast`` served, in dispatch order (failed ones are in
        #: ``take_failed``): what the gateway feeds, one observation a
        #: batch, to its admission estimate and circuit breaker.
        self.last_served: list[tuple[int, float]] = []
        self._failed: list[tuple[list[ForecastRequest], SessionFailure]] = []

    # ------------------------------------------------------------------
    # Observation ingestion (delegates to the session's store(s))
    # ------------------------------------------------------------------
    def ingest(self, values: np.ndarray, timestamp_minutes: float) -> None:
        self.session.ingest(values, timestamp_minutes)

    def check_window(self, window: np.ndarray | None) -> np.ndarray | None:
        """Reject malformed windows at the door: a bad request must fail
        its own caller, never poison the micro-batch it would have been
        coalesced into.  A window must have the model's shape
        (:class:`~repro.utils.errors.ShapeError`), a numeric dtype and
        only finite values (``ValueError``): a string window would raise
        inside the batched dispatch, and a ``nan`` one would be answered
        and cached as a forecast.

        A window is checked once per service: :meth:`submit` and
        :meth:`forecast` check here, and the gateway checks once at its
        own door, then queues on the service directly (a fallback
        re-route checks again, against the fallback's model)."""
        if window is None:
            return None
        window = np.asarray(window)
        expected = (self.session.horizon, self.session.num_nodes,
                    self.session.in_features)
        if window.shape != expected:
            raise ShapeError(f"expected a {expected} window, "
                             f"got {window.shape}")
        if window.dtype.kind not in "fiu":
            raise ValueError(f"window dtype {window.dtype} is not numeric")
        if not np.isfinite(window).all():
            raise ValueError("window holds non-finite values")
        return window

    # ------------------------------------------------------------------
    # Immediate path
    # ------------------------------------------------------------------
    def forecast(self, window: np.ndarray | None = None, *,
                 deadline: float | None = None) -> Forecast:
        """Serve one request now: dispatch the queue (coalescing with
        anything already pending) and return this request's forecast.
        Other requests' completions stay buffered for ``poll``.

        ``window=None`` forecasts from the session's current streamed
        state (requires attached feature stores).
        """
        req = self.queue.submit(self.check_window(window), deadline=deadline)
        self._dispatch_pending()
        for i, fc in enumerate(self._completed):
            if fc.request_id == req.request_id:
                return self._completed.pop(i)
        for batch, exc in self._failed:
            if any(r.request_id == req.request_id for r in batch):
                raise SessionFailure(
                    f"request {req.request_id} failed: {exc}") from exc
        raise RuntimeError(f"request {req.request_id} never completed")

    def forecast_streamed(self) -> np.ndarray:
        """Forecast every sensor from the session's feature store.

        Returns ``[horizon, nodes]`` in original units (standardized
        without a scaler); no queueing.
        """
        preds = self.session.forecast_current()
        if self.session.scaler is not None:
            return self.session.to_original_units(preds)
        return preds[..., 0].copy()

    # ------------------------------------------------------------------
    # Micro-batched path
    # ------------------------------------------------------------------
    def submit(self, window: np.ndarray | None = None, *,
               deadline: float | None = None) -> int:
        """Enqueue a request; returns its id.  Never dispatches: requests
        due in the same instant must all be queued before the ``poll``
        that serves them, or they cannot share a forward."""
        return self.queue.submit(self.check_window(window),
                                 deadline=deadline).request_id

    def _dispatch_pending(self) -> None:
        """The one dispatch site: everything pending, oldest first, in
        batches of at most ``max_batch``."""
        self.last_served = []
        while len(self.queue):
            self._dispatch(self.queue.next_batch())

    def poll(self) -> list[Forecast]:
        """Dispatch everything pending; returns (and drains) newly
        completed forecasts."""
        self._dispatch_pending()
        done, self._completed = self._completed, []
        return done

    #: Nothing is ever held back, so there is nothing to force: the name
    #: callers use to say "and leave the queue empty".
    flush = poll

    def take_failed(self) -> list[tuple[list[ForecastRequest], SessionFailure]]:
        """Drain batches whose dispatch failed, as ``(requests, failure)``
        pairs in dispatch order.  Failed requests keep their windows, so
        a caller can resubmit or degrade them."""
        failed, self._failed = self._failed, []
        return failed

    # ------------------------------------------------------------------
    def _materialise(self, reqs: list[ForecastRequest]) -> np.ndarray:
        """Stack request windows directly into the session's staging
        buffer (``predict`` skips its staging copy for views of it); a
        ``None`` window means "the session's current streamed state"."""
        batch = self.session.stage(len(reqs))
        current = None
        for i, req in enumerate(reqs):
            if req.window is None:
                if current is None:
                    if not hasattr(self.session, "current_window"):
                        raise RuntimeError(
                            f"{type(self.session).__name__} does not expose "
                            "current_window(); submit explicit windows")
                    current = self.session.current_window()
                batch[i] = current
            else:
                batch[i] = req.window
        return batch

    def _dispatch(self, reqs: list[ForecastRequest]) -> list[Forecast]:
        if not reqs:
            return []
        failure = None
        injector = self.fault_injector
        t0 = time.perf_counter()
        try:
            if injector is not None:
                injector.on_dispatch(len(reqs))
            x = self._materialise(reqs)
            preds = self.session.predict(x)
        except SessionFailure as exc:
            failure = exc
        service_seconds = time.perf_counter() - t0
        if self.service_time is not None:
            service_seconds = float(self.service_time(len(reqs)))
        if injector is not None:
            service_seconds = injector.scale_service_time(service_seconds)
        if isinstance(self.clock, ManualClock):
            self.clock.advance(service_seconds)
        now = self.clock()
        self.stats.busy_seconds += service_seconds
        self.stats.batches += 1
        if failure is not None:
            # Charge the failed attempt honestly (the time passed, the
            # slot was burned) but buffer the requests instead of losing
            # them: the gateway walks them down its degradation ladder.
            for req in reqs:
                req.completed = now
            self.stats.failures += len(reqs)
            self.stats.failed_batches += 1
            self._failed.append((list(reqs), failure))
            return []
        # One unit inversion for the whole batch; each request owns its
        # row (rows are disjoint, so writing one leaves the rest alone).
        if self.session.scaler is not None:
            values = self.session.to_original_units(preds)
        else:
            values = preds[..., 0].copy()
        out = []
        for i, req in enumerate(reqs):
            req.completed = now
            fc = Forecast(request_id=req.request_id,
                          predictions=np.ascontiguousarray(values[i]),
                          latency=req.latency, queue_wait=req.queue_wait,
                          batch_size=req.batch_size,
                          deadline_missed=req.deadline_missed)
            out.append(fc)
            self.stats.requests += 1
            self.stats.deadline_misses += int(req.deadline_missed)
        self.last_served.append((len(reqs), service_seconds))
        self._completed.extend(out)
        return out
