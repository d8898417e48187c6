"""``repro.serving``: the online forecast-serving subsystem.

Turns trained checkpoints into a queryable, instrumented service.  Every
session holds the whole model over the whole sensor graph, as every
training rank does: a DCRNN's receptive field spans the network, so
serving, like training, partitions nothing.

- :class:`~repro.serving.session.ModelSession` — a restored model behind
  persistent buffers, answering ``no_grad`` forwards.
- :class:`~repro.serving.cache.FeatureStore` — per-sensor sliding-window
  store that standardizes streaming observations exactly once.
- :class:`~repro.serving.queue.MicroBatchQueue` — work-conserving
  request coalescing (whatever is pending, up to ``max_batch``) with
  deadline accounting.
- :class:`~repro.serving.service.ForecastService` — the synchronous
  facade tying session + queue + clock together.
- :mod:`repro.serving.gateway` — the multi-tenant front door: named
  deployments with blue-green swaps, API-key auth + quotas, admission
  control with load shedding, and a TTL result cache
  (:class:`~repro.serving.gateway.Gateway`).
- :class:`~repro.serving.loadgen.GatewayLoadGenerator` — reproducible
  per-tenant open-loop load on the gateway's ManualClock, reporting
  p50/p95/p99 latency, QPS, goodput and shed rate.
- :mod:`repro.serving.resilience` — self-healing for the gateway: per-
  deployment circuit breakers, seeded fault injection, and one recovery
  path (stale cache -> fallback deployment -> explicit failure).

The declarative entry points live in ``repro.api``:
``serve(spec_or_checkpoint) -> ForecastService`` and
``build_gateway({name: source, ...}) -> Gateway``.
"""

from repro.serving.cache import FeatureStore
from repro.serving.loadgen import (
    GatewayLoadGenerator,
    LoadReport,
    TenantStream,
)
from repro.serving.queue import ForecastRequest, MicroBatchQueue
from repro.serving.service import Forecast, ForecastService, ManualClock, ServiceStats
from repro.serving.session import ModelSession
from repro.serving.gateway import (
    AdmissionController,
    AuthError,
    Deployment,
    Gateway,
    GatewayResponse,
    ResultCache,
    ShedDecision,
    SwapRecord,
    Tenant,
    TenantManager,
)
from repro.serving.resilience import (
    CircuitBreaker,
    CircuitTransition,
    DeploymentFaultInjector,
    GatewayResilience,
)

__all__ = [
    "AdmissionController",
    "AuthError",
    "CircuitBreaker",
    "CircuitTransition",
    "Deployment",
    "DeploymentFaultInjector",
    "FeatureStore",
    "Forecast",
    "ForecastRequest",
    "ForecastService",
    "Gateway",
    "GatewayLoadGenerator",
    "GatewayResilience",
    "GatewayResponse",
    "LoadReport",
    "ManualClock",
    "MicroBatchQueue",
    "ModelSession",
    "ResultCache",
    "ServiceStats",
    "ShedDecision",
    "SwapRecord",
    "Tenant",
    "TenantManager",
    "TenantStream",
]
