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
- :class:`~repro.serving.loadgen.LoadGenerator` — reproducible closed-
  and open-loop load with p50/p95/p99 latency and QPS reporting.
- :mod:`repro.serving.gateway` — the multi-tenant front door: named
  deployments with blue-green swaps, API-key auth + quotas, admission
  control with load shedding, and a TTL result cache
  (:class:`~repro.serving.gateway.Gateway`, driven per tenant by
  :class:`~repro.serving.loadgen.GatewayLoadGenerator`).
- :mod:`repro.serving.resilience` — self-healing for the gateway: per-
  deployment circuit breakers, seeded fault injection, deadline-budgeted
  retries/hedging, graceful degradation, and canary-gated blue-green
  rollback.

The declarative entry points live in ``repro.api``:
``serve(spec_or_checkpoint) -> ForecastService`` and
``build_gateway({name: source, ...}) -> Gateway``.
"""

from repro.serving.cache import FeatureStore
from repro.serving.loadgen import (
    GatewayLoadGenerator,
    GatewayLoadReport,
    LoadGenerator,
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
    HealthMonitor,
    ResiliencePolicy,
    RollbackRecord,
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
    "GatewayLoadReport",
    "GatewayResilience",
    "GatewayResponse",
    "HealthMonitor",
    "LoadGenerator",
    "LoadReport",
    "ManualClock",
    "MicroBatchQueue",
    "ModelSession",
    "ResiliencePolicy",
    "ResultCache",
    "RollbackRecord",
    "ServiceStats",
    "ShedDecision",
    "SwapRecord",
    "Tenant",
    "TenantManager",
    "TenantStream",
]
