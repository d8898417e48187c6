"""Tenants: auth keys, token-bucket quotas, isolated streaming state.

The gateway is multi-tenant in the strong sense: tenants share model
deployments (weights are read-only at serving time) but **nothing
stateful**.  Each tenant authenticates with an API key, spends a
token-bucket quota refilled on the gateway clock, and streams
observations into its own private :class:`~repro.serving.cache.
FeatureStore` per deployment — tenant A's ingests can never leak into
tenant B's ``window=None`` forecasts (the isolation test pins this).

Quotas are deterministic: the bucket refills continuously at
``rate_qps`` tokens per clock second up to ``BURST``, so on a
:class:`~repro.serving.service.ManualClock` the exact sequence of
admit/reject decisions is a pure function of the request schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.utils.errors import ReproError

#: Token-bucket headroom: a metered tenant starts with, and refills up
#: to, this many requests.
BURST = 32


class AuthError(ReproError, PermissionError):
    """An API key did not resolve to a registered tenant."""


@dataclass
class TenantQuota:
    """Token bucket: sustained ``rate_qps`` with ``BURST`` headroom.

    ``rate_qps=None`` disables metering (unlimited tenants pay no quota
    bookkeeping at all).
    """

    rate_qps: float | None = None

    def __post_init__(self):
        if self.rate_qps is not None and self.rate_qps <= 0:
            raise ValueError(f"rate_qps must be positive, "
                             f"got {self.rate_qps}")


@dataclass
class TenantStats:
    """Per-tenant request accounting, kept by the gateway."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    cache_hits: int = 0
    shed: int = 0
    quota_rejected: int = 0
    deadline_misses: int = 0
    degraded: int = 0           # answered from stale cache or a fallback
    failed: int = 0             # degradation ladder exhausted

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class Tenant:
    """One registered tenant: identity, quota state, private stores."""

    def __init__(self, tenant_id: str, api_key: str,
                 quota: TenantQuota | None = None):
        self.tenant_id = str(tenant_id)
        self.api_key = str(api_key)
        self.quota = quota or TenantQuota()
        self.stats = TenantStats()
        #: deployment name -> this tenant's private FeatureStore.
        self.stores: dict = {}
        self._tokens = float(BURST)
        self._refilled_at: float | None = None

    # ------------------------------------------------------------------
    def try_spend_token(self, now: float) -> bool:
        """Consume one quota token at clock time ``now`` if available."""
        if self.quota.rate_qps is None:
            return True
        if self._refilled_at is None:
            self._refilled_at = now
        elapsed = max(0.0, now - self._refilled_at)
        self._tokens = min(float(BURST),
                           self._tokens + elapsed * self.quota.rate_qps)
        self._refilled_at = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class TenantManager:
    """Registry of tenants with API-key authentication."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self._by_id: dict[str, Tenant] = {}
        self._by_key: dict[str, Tenant] = {}
        self.auth_failures = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def names(self) -> list[str]:
        return sorted(self._by_id)

    # ------------------------------------------------------------------
    def register(self, tenant_id: str, *, api_key: str | None = None,
                 rate_qps: float | None = None) -> Tenant:
        """Add a tenant; returns it (its ``api_key`` is the credential).

        ``api_key`` defaults to a deterministic ``key-<tenant_id>`` so
        examples and tests stay reproducible; production callers pass
        real secrets.
        """
        tenant_id = str(tenant_id)
        if tenant_id in self._by_id:
            raise ValueError(f"tenant {tenant_id!r} already registered")
        api_key = api_key if api_key is not None else f"key-{tenant_id}"
        if api_key in self._by_key:
            raise ValueError(f"api key already in use (tenant "
                             f"{self._by_key[api_key].tenant_id!r})")
        tenant = Tenant(tenant_id, api_key, TenantQuota(rate_qps=rate_qps))
        self._by_id[tenant_id] = tenant
        self._by_key[api_key] = tenant
        return tenant

    def get(self, tenant_id: str) -> Tenant:
        try:
            return self._by_id[str(tenant_id)]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant_id!r}; registered: "
                           f"{self.names()}") from None

    def authenticate(self, api_key: str) -> Tenant:
        """Resolve an API key to its tenant or raise :class:`AuthError`."""
        tenant = self._by_key.get(str(api_key))
        if tenant is None:
            self.auth_failures += 1
            raise AuthError("invalid API key")
        return tenant

    def per_tenant_stats(self) -> dict[str, dict]:
        return {tid: t.stats.to_dict() for tid, t in sorted(self._by_id.items())}
