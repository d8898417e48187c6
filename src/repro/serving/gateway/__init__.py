"""``repro.serving.gateway``: the multi-tenant serving front door.

A session behind a micro-batching service serves one model to one
caller.  This package is the production front end over all of it:

- :class:`~repro.serving.gateway.deployments.Deployment` — one named,
  version-pinned deployment (warm/cold replica, atomic blue-green
  checkpoint swaps that check green, then drain in-flight requests).
- :class:`~repro.serving.gateway.tenancy.TenantManager` — API-key auth,
  deterministic token-bucket quotas, per-tenant isolated feature stores.
- :class:`~repro.serving.gateway.admission.AdmissionController` —
  deadline-projection load shedding, recorded per tenant.
- :class:`~repro.serving.gateway.result_cache.ResultCache` — TTL result
  cache keyed on (deployment, version, window hash); hits
  are bitwise equal to recomputation.
- :class:`~repro.serving.gateway.gateway.Gateway` — the app factory tying
  them together on the subsystem's ManualClock/real-clock duality.

Self-healing lives in :mod:`repro.serving.resilience` (circuit breakers
and the degradation ladder): its one recovery decision picks the rung,
the gateway executes it, for every request it serves.

The declarative entry point is ``repro.api.build_gateway``.
"""

from repro.serving.gateway.admission import AdmissionController, ShedDecision
from repro.serving.gateway.deployments import Deployment, SwapRecord
from repro.serving.gateway.gateway import (
    Gateway,
    GatewayResponse,
    GatewayStats,
    TERMINAL_STATUSES,
)
from repro.serving.gateway.result_cache import (
    CacheStats,
    ResultCache,
    cache_key,
    window_fingerprint,
)
from repro.serving.gateway.tenancy import (
    AuthError,
    Tenant,
    TenantManager,
    TenantQuota,
    TenantStats,
)
from repro.serving.resilience import (
    CircuitBreaker,
    CircuitTransition,
    DeploymentFaultInjector,
    GatewayResilience,
    HealthMonitor,
    ResiliencePolicy,
)

__all__ = [
    "AdmissionController",
    "AuthError",
    "CacheStats",
    "CircuitBreaker",
    "CircuitTransition",
    "Deployment",
    "DeploymentFaultInjector",
    "Gateway",
    "GatewayResilience",
    "GatewayResponse",
    "GatewayStats",
    "HealthMonitor",
    "ResiliencePolicy",
    "ResultCache",
    "ShedDecision",
    "SwapRecord",
    "TERMINAL_STATUSES",
    "Tenant",
    "TenantManager",
    "TenantQuota",
    "TenantStats",
    "cache_key",
    "window_fingerprint",
]
