"""Named, version-pinned model deployments with blue-green swaps.

A :class:`Deployment` is one served model behind the gateway: a
version-pinned :class:`~repro.serving.session.ModelSession` wrapped in
its own :class:`~repro.serving.service.ForecastService` (micro-batch
queue + stats) on the gateway's shared clock.  Deployments start *warm*
(session live, buffers allocated) or *cold* (only a rebuildable source —
a checkpoint path or factory — held; the session is built on first touch
and the warm-up cost recorded).

**Blue-green swap.**  :meth:`Deployment.swap` replaces a
deployment's checkpoint atomically with respect to requests: the green
session is fully built and checked *first* (it must match blue's model
interface and answer a zero window with finite values, or the swap
raises and blue keeps serving with its queue untouched), the blue queue
is then drained — every in-flight request completes against the version
it was admitted under — and only then does the service pointer flip.
Zero requests are dropped; the drained forecasts are returned so the
caller can deliver them, and every swap is recorded as a
:class:`SwapRecord` (the gateway tests pin the zero-drop invariant).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.serving.cache import FeatureStore
from repro.serving.service import Forecast, ForecastService
from repro.utils.errors import SessionFailure, ShapeError


def _resolve_session(source: Any) -> Any:
    """Materialise a session from a source: a live session (has
    ``predict``), a zero-arg factory, or a self-describing checkpoint
    path."""
    if hasattr(source, "predict"):
        return source
    if callable(source):
        return source()
    if isinstance(source, str):
        from repro.serving.session import ModelSession
        return ModelSession.from_checkpoint(source)
    raise TypeError(f"deployment source must be a session, factory or "
                    f"checkpoint path, got {type(source).__name__}")


@dataclass(frozen=True)
class SwapRecord:
    """One completed blue-green swap."""

    deployment: str
    old_version: str
    new_version: str
    drained: int            # in-flight requests completed on blue
    dropped: int            # must be 0: the zero-drop invariant
    seconds: float          # wall time to build green + drain + flip
    at: float               # gateway-clock time of the flip


class Deployment:
    """One named deployment: version pin, replica state, service."""

    def __init__(self, name: str, source: Any, *, version: str = "v1",
                 state: str = "warm", clock: Callable[[], float],
                 max_batch: int = 8,
                 service_time: Callable[[int], float] | None = None,
                 fallback: str | None = None):
        if state not in ("warm", "cold"):
            raise ValueError(f"state must be 'warm' or 'cold', got {state!r}")
        if state == "cold" and hasattr(source, "predict"):
            raise ValueError(
                "a cold deployment needs a rebuildable source (checkpoint "
                "path or factory), not a live session — cold means the "
                "session does not exist yet")
        self.name = str(name)
        self.version = str(version)
        self.state = state
        self.source = source
        self.clock = clock
        self.max_batch = int(max_batch)
        self.service_time = service_time
        self.warm_seconds = 0.0     # wall cost of the last activation
        self.activations = 0
        self.swaps: list[SwapRecord] = []
        # Resilience state: which deployment degrades for this one, the
        # chaos injector (threaded into every service this deployment
        # activates), and the crash-restart count.
        self.fallback = None if fallback is None else str(fallback)
        self.fault_injector = None
        self.restarts = 0
        self.service: ForecastService | None = None
        if state == "warm":
            self._activate()

    # ------------------------------------------------------------------
    # Replica state
    # ------------------------------------------------------------------
    def _activate(self) -> None:
        t0 = time.perf_counter()
        session = _resolve_session(self.source)
        self.service = ForecastService(
            session, max_batch=self.max_batch,
            clock=self.clock, service_time=self.service_time)
        self.service.fault_injector = self.fault_injector
        self.warm_seconds = time.perf_counter() - t0
        self.activations += 1
        self.state = "warm"

    def attach_injector(self, injector: Any) -> None:
        """Wire a chaos injector into this deployment (and its live
        service; re-activation re-attaches it automatically)."""
        self.fault_injector = injector
        if self.service is not None:
            self.service.fault_injector = injector

    def restart(self) -> None:
        """Bring a crashed session back up.

        Crashes are injected (the session object itself is intact), so a
        restart revives the injector's fail-fast latch and counts the
        incident; forecasts after recovery stay bitwise-identical to an
        unfaulted run.  Already-fired one-shot crash events do not
        refire.
        """
        self.restarts += 1
        if self.fault_injector is not None:
            self.fault_injector.revive()

    def warm(self) -> "Deployment":
        """Ensure the session is live (cold deployments build it here)."""
        if self.service is None:
            self._activate()
        return self

    def cool(self) -> "Deployment":
        """Release the session (only rebuildable deployments may cool)."""
        if hasattr(self.source, "predict"):
            raise ValueError(f"deployment {self.name!r} wraps a live "
                             f"session and cannot be cooled; register a "
                             f"checkpoint path or factory instead")
        if self.service is not None and len(self.service.queue):
            raise RuntimeError(f"deployment {self.name!r} has "
                               f"{len(self.service.queue)} in-flight "
                               f"request(s); drain before cooling")
        self.service = None
        self.state = "cold"
        return self

    @property
    def session(self) -> Any:
        return self.warm().service.session

    @property
    def in_flight(self) -> int:
        return len(self.service.queue) if self.service is not None else 0

    # ------------------------------------------------------------------
    def new_store(self, capacity: int | None = None) -> FeatureStore:
        """A fresh tenant-private feature store shaped for this model.

        Tenants stream into their own stores (never the session's), so
        per-tenant state stays isolated even though the backing session is
        shared.  The session shapes it
        (:meth:`~repro.serving.session.ModelSession.new_store`).
        """
        session = self.session
        if session.scaler is None:
            raise RuntimeError(f"deployment {self.name!r} has no scaler; "
                               f"streamed (window=None) forecasts need one")
        return session.new_store(capacity)

    # ------------------------------------------------------------------
    def swap(self, source: Any, *, version: str) -> tuple[SwapRecord,
                                                          list[Forecast]]:
        """Blue-green swap to ``source`` pinned at ``version``.

        Returns the record and the drained in-flight forecasts (completed
        on the old session; the gateway delivers them to their tenants).
        Green must answer one zero window (the training mean, in
        standardized units) with finite values before blue drains; like
        the build, that forward is not charged to the clock.  A green that
        fails it raises :class:`~repro.utils.errors.SessionFailure`.
        """
        if str(version) == self.version:
            raise ValueError(f"swap needs a new version pin; deployment "
                             f"{self.name!r} is already at {self.version!r}")
        t0 = time.perf_counter()
        self.warm()
        blue = self.service.session
        green = _resolve_session(source)       # build green before any drain
        for attr in ("horizon", "num_nodes", "in_features"):
            if getattr(green, attr) != getattr(blue, attr):
                raise ShapeError(
                    f"green session {attr}={getattr(green, attr)} does not "
                    f"match blue {attr}={getattr(blue, attr)}; a swap may "
                    f"change weights, never the model interface")
        zero = np.zeros((1, green.horizon, green.num_nodes, green.in_features),
                        np.float32)
        if not np.all(np.isfinite(green.predict(zero))):
            raise SessionFailure(
                f"green session for {self.name!r}@{version} answers a zero "
                f"window with non-finite values; blue keeps serving")
        drained = self.service.flush()         # blue finishes its queue
        dropped = len(self.service.queue)      # flush() empties it: 0
        self.service.session = green           # the atomic flip
        old_version, self.version = self.version, str(version)
        self.source = source
        record = SwapRecord(
            deployment=self.name, old_version=old_version,
            new_version=self.version, drained=len(drained), dropped=dropped,
            seconds=time.perf_counter() - t0, at=self.clock())
        self.swaps.append(record)
        return record, drained

    def describe(self) -> dict:
        return {"name": self.name, "version": self.version,
                "state": self.state, "in_flight": self.in_flight,
                "activations": self.activations,
                "warm_seconds": self.warm_seconds,
                "swaps": len(self.swaps),
                "fallback": self.fallback,
                "restarts": self.restarts}
