"""``serve(...)``: the declarative entry point into the serving subsystem.

Training's counterpart to :func:`repro.api.runner.run`: point it at a
trained artifact — a **self-describing checkpoint** path, a finished
:class:`~repro.api.runner.RunResult`, or a :class:`~repro.api.spec.RunSpec`
(trained on the spot) — and get a ready
:class:`~repro.serving.service.ForecastService` back::

    from repro.api import RunSpec, run, serve

    result = run(RunSpec(dataset="pems-bay", scale="tiny"))
    svc = serve(result)                       # local single-worker session
    svc = serve("ckpt.npz", server="sharded", num_shards=4)

Server topologies live in the :data:`SERVERS` registry (``local`` /
``sharded`` by default), so alternative request paths register exactly
like models and datasets do.  The multi-tenant front door over one or
more deployments is :func:`build_gateway`::

    gw = build_gateway({"bay": "ckpt_a.npz", "la": "ckpt_b.npz"},
                       tenants=["ops", "research"], cache_ttl=30.0)
    gw.request("key-ops", "bay", window)
"""

from __future__ import annotations

import inspect
from typing import Any, Callable

from repro.api.builders import ModelContext, default_in_features
from repro.api.registry import MODELS, Registry
from repro.api.scales import get_scale
from repro.api.spec import RunSpec
from repro.serving.cache import has_time_feature
from repro.serving.gateway import Gateway
from repro.serving.service import ForecastService
from repro.serving.session import build_local_session
from repro.serving.sharding import ShardedSession
from repro.utils.errors import ServerKeywordError

#: Server topologies resolvable by ``serve(..., server=<key>)``.
SERVERS = Registry("server")
SERVERS.register("local", build_local_session)


def list_servers() -> list[str]:
    """Keys accepted by ``serve``'s ``server`` argument."""
    return SERVERS.names()


@SERVERS.register("sharded")
def _build_sharded_session(model, scaler, dataset, spec, *,
                           num_shards: int = 2,
                           receptive_hops: int | None = None,
                           store_capacity: int | None = None,
                           store_dtype="float32",
                           num_standby: int = 0,
                           fault_plan=None) -> ShardedSession:
    """Partitioned multi-worker session with halo-exchange accounting.

    ``num_standby`` spare replicas and a ``fault_plan`` (scheduled
    ``worker_crash`` events) flow straight into the session's failover
    machinery — ``serve(result, server="sharded", num_standby=1,
    fault_plan=plan)`` is the chaos-serving entry point.
    """
    if dataset is None:
        raise ValueError("sharded serving needs the sensor graph; serve a "
                         "RunResult or a spec-embedding checkpoint")
    return ShardedSession(model, scaler, dataset.graph,
                          num_shards=num_shards, spec=spec,
                          receptive_hops=receptive_hops,
                          store_capacity=store_capacity,
                          store_dtype=store_dtype,
                          num_standby=num_standby, fault_plan=fault_plan,
                          add_time_feature=has_time_feature(dataset))


def restore_checkpoint(path: str) -> tuple[Any, Any, RunSpec, Any]:
    """Rebuild ``(model, scaler, spec, dataset)`` from a self-describing
    checkpoint.

    The checkpoint must have been written with
    ``save_checkpoint(..., spec=...)``; dataset generation is
    deterministic in the spec's seed, so the sensor graph (and therefore
    the diffusion supports) match the training run exactly.
    """
    from repro.api.runner import _load_cached_dataset
    from repro.training.checkpoint import (
        load_checkpoint, read_checkpoint_meta, read_checkpoint_scaler)

    meta = read_checkpoint_meta(path)
    if meta.get("spec") is None:
        raise ValueError(
            f"{path} is not self-describing: it was saved without "
            f"spec=...; re-save with save_checkpoint(..., spec=run_spec)")
    spec = RunSpec.from_dict(meta["spec"])
    scale = get_scale(spec.scale)
    # Shares the runner's dataset cache: serve(ckpt) right after
    # run(spec) reuses the already-generated dataset + sensor graph.
    ds = _load_cached_dataset(spec.dataset, scale.nodes, scale.entries,
                              spec.seed)
    horizon = scale.horizon or ds.spec.horizon
    ctx = ModelContext(graph=ds.graph, horizon=horizon,
                       in_features=default_in_features(ds),
                       hidden_dim=scale.hidden_dim, seed=spec.seed)
    model = MODELS.get(spec.model)(ctx)
    load_checkpoint(path, model)
    return model, read_checkpoint_scaler(path), spec, ds


def _server_builder(server: str, server_kwargs: dict) -> Callable:
    """The :data:`SERVERS` builder for ``server``, once ``server_kwargs``
    are checked against the keywords it declares: a stray one fails at
    the call that passed it, not when a lazy deployment first warms, and
    is never swallowed (an ignored ``fault_plan`` would report a
    vacuously perfect fault-free "chaos" run)."""
    def declared(name: str):
        return inspect.signature(SERVERS.get(name)).parameters

    for keyword in server_kwargs:
        if keyword not in declared(server):
            takers = [f"server={name!r}" for name in SERVERS
                      if keyword in declared(name)]
            raise ServerKeywordError(
                f"unexpected keyword argument {keyword!r} for "
                f"server={server!r} (taken by: "
                f"{', '.join(takers) or 'no server'})")
    return SERVERS.get(server)


def _resolve_artifact(source: Any) -> tuple[Any, Any, RunSpec, Any]:
    """``(model, scaler, spec, dataset)`` from anything servable: a
    RunSpec is trained, a RunResult hands over its artifacts, a
    checkpoint path is restored."""
    from repro.api.runner import RunResult, run

    if isinstance(source, RunSpec):
        source = run(source)
    if isinstance(source, RunResult):
        art = source.artifacts
        if art is None:
            raise ValueError("RunResult carries no artifacts; serve the "
                             "checkpoint it saved instead")
        return art.model, art.loaders.scaler, source.spec, art.dataset
    if isinstance(source, str):
        return restore_checkpoint(source)
    raise TypeError(f"expected a checkpoint path, RunSpec or RunResult, got "
                    f"{type(source).__name__}")


def serve(source: Any, *, server: str = "local", max_batch: int = 32,
          clock: Callable[[], float] | None = None,
          service_time: Callable[[int], float] | None = None,
          **server_kwargs) -> ForecastService:
    """Build a :class:`ForecastService` from a trained artifact.

    Parameters
    ----------
    source:
        a checkpoint path (``str``), a finished
        :class:`~repro.api.runner.RunResult`, or a
        :class:`~repro.api.spec.RunSpec` (which is trained first via
        :func:`~repro.api.runner.run` — convenient, but expensive).
    server:
        :data:`SERVERS` key choosing the session topology
        (``local`` / ``sharded``).
    max_batch:
        the micro-batching cap: ``poll`` coalesces whatever queued while
        the previous batch ran, up to ``max_batch`` requests a forward.
        Nothing is held back to wait for company, so ``submit`` every
        request that is due, then ``poll``.
    clock / service_time:
        forwarded to :class:`ForecastService` (explicit simulated time and
        a synthetic service-time model; both default to honest wall-clock
        measurement on a :class:`~repro.serving.service.ManualClock`).
    server_kwargs:
        extra knobs for the server builder (``num_shards``,
        ``receptive_hops``, ``store_capacity``, ...); one the builder
        does not take raises
        :class:`~repro.utils.errors.ServerKeywordError`.
    """
    builder = _server_builder(server, server_kwargs)
    model, scaler, spec, ds = _resolve_artifact(source)
    session = builder(model, scaler, ds, spec, **server_kwargs)
    return ForecastService(session, max_batch=max_batch, clock=clock,
                           service_time=service_time)


def _normalise_tenants(tenants) -> list[dict]:
    """``None`` / names / dicts -> ``add_tenant`` keyword dicts."""
    if tenants is None:
        return [{"tenant_id": "default"}]
    out = []
    for tenant in tenants:
        if isinstance(tenant, str):
            out.append({"tenant_id": tenant})
        elif isinstance(tenant, dict):
            if "tenant_id" not in tenant:
                raise ValueError(f"tenant dict needs a 'tenant_id': {tenant}")
            out.append(dict(tenant))
        else:
            raise TypeError(f"tenant must be a name or dict, got "
                            f"{type(tenant).__name__}")
    return out


def session_source(source: Any, *, server: str = "local",
                   **server_kwargs) -> Callable[[], Any]:
    """Zero-arg session factory over any ``serve``-able artifact.

    The returned callable resolves ``source`` (checkpoint path, RunSpec,
    RunResult, or an already-built session) through the :data:`SERVERS`
    builder on first call — which is what makes ``state="cold"``
    deployments and blue-green :meth:`Gateway.swap` lazy: nothing is
    trained or restored until the deployment actually activates.
    """
    builder = _server_builder(server, server_kwargs)

    def build():
        if hasattr(source, "predict"):       # already a live session
            return source
        model, scaler, spec, ds = _resolve_artifact(source)
        return builder(model, scaler, ds, spec, **server_kwargs)

    return build


def build_gateway(sources: dict[str, Any], *, tenants=None,
                  server: str = "local", clock=None,
                  max_batch: int = 8, max_wait: float = 0.005,
                  service_time: Callable[[int], float] | None = None,
                  cache_ttl: float | None = None, cache_entries: int = 1024,
                  max_queue_depth: int = 256,
                  default_deadline: float | None = None,
                  store_capacity: int | None = None,
                  versions: dict[str, str] | None = None,
                  states: dict[str, str] | None = None,
                  fallbacks: dict[str, str] | None = None,
                  resilience=None, fault_plan=None,
                  **server_kwargs) -> Gateway:
    """Build a multi-tenant :class:`Gateway` over named deployments.

    Parameters
    ----------
    sources:
        ``{deployment_name: source}`` where each source is anything
        ``serve`` accepts (checkpoint path / RunSpec / RunResult) or an
        already-built session.  Each resolves lazily through
        :func:`session_source`, so ``states={"name": "cold"}`` replicas
        cost nothing until warmed.
    tenants:
        tenant names or ``add_tenant`` keyword dicts (``tenant_id``,
        ``api_key``, ``rate_qps``, ``burst``).  Defaults to a single
        ``default`` tenant with key ``key-default``.
    server:
        backend topology per deployment (``local`` / ``sharded``);
        ``server_kwargs`` flow into that builder (``num_shards``, ...).
    versions / states:
        optional per-deployment version pins (default ``v1``) and
        ``warm``/``cold`` start states (default ``warm``).
    fallbacks:
        optional ``{deployment: fallback_deployment}`` degradation
        routes — when a deployment's circuit opens, requests that miss
        the stale cache are served by the named fallback.
    resilience / fault_plan:
        a :class:`~repro.serving.resilience.ResiliencePolicy` and a
        :class:`~repro.runtime.faults.FaultPlan` whose serving events
        (``session_crash`` / ``session_straggler`` /
        ``store_corruption``) target deployments by name — the chaos
        entry point for the gateway, mirroring ``serve(...,
        server="sharded", fault_plan=...)`` for shard workers.
    max_wait:
        range-checked and otherwise unused.  The queue is work-conserving
        (a batch is whatever queued while the previous one ran), so there
        is no coalescing timer to set; the parameter survives only because
        ``benchmarks/e2e/workloads.py`` still passes it and a PR that
        changes ``src/`` may not edit the benchmark.  The ``benchmark`` PR
        (ROADMAP item 10) removes that argument and this parameter
        together.
    remaining keywords:
        gateway knobs, forwarded to :class:`Gateway` (batch cap,
        result-cache TTL, admission depth, default deadline).
    """
    if max_wait < 0:
        raise ValueError(f"max_wait must be >= 0, got {max_wait}")
    if not sources:
        raise ValueError("build_gateway needs at least one deployment")
    for name, target in (fallbacks or {}).items():
        if name not in sources or target not in sources:
            raise ValueError(
                f"fallback route {name!r} -> {target!r} names an unknown "
                f"deployment; available: {sorted(sources)}")
        if name == target:
            raise ValueError(f"deployment {name!r} cannot be its own "
                             f"fallback")
    gw = Gateway(clock=clock, max_batch=max_batch,
                 service_time=service_time, cache_ttl=cache_ttl,
                 cache_entries=cache_entries,
                 max_queue_depth=max_queue_depth,
                 default_deadline=default_deadline,
                 store_capacity=store_capacity,
                 resilience=resilience, fault_plan=fault_plan)
    for name, source in sources.items():
        gw.add_deployment(
            name,
            session_source(source, server=server, **server_kwargs),
            version=(versions or {}).get(name, "v1"),
            state=(states or {}).get(name, "warm"),
            fallback=(fallbacks or {}).get(name))
    for tenant in _normalise_tenants(tenants):
        gw.add_tenant(**tenant)
    return gw
