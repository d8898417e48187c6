"""Capacity planning: pick world/shard counts from budgets, analytically.

The elastic pieces need setpoints: how many ranks should a training run
relaunch with, and between which fleet sizes should the serving
autoscaler move?  This module answers both from the repository's
existing analytic models instead of inventing new ones —
:class:`~repro.training.perfmodel.TrainingPerfModel` prices training
epochs (and :meth:`reshard_seconds` prices the world change itself),
and :func:`~repro.cluster.costmodel.queueing_latency` projects serving
latency from utilization.

Both planners are deliberately conservative pickers, not optimizers:
they sweep a small candidate ladder (powers of two — the graph
partitioner's constraint, and the autoscaler's double/halve steps) and
return the *smallest* size that meets the budget, because the cost axis
(:func:`~repro.cluster.costmodel.gpu_seconds`) always grows with size
while the benefit saturates at the scaling knee the paper measures.
Every candidate's numbers ride along in ``sweep`` so a caller can audit
the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cluster.costmodel import gpu_seconds, queueing_latency
from repro.elastic.autoscaler import AutoscalerPolicy
from repro.training.perfmodel import TrainingPerfModel

POW2_WORLDS = (1, 2, 4, 8, 16, 32, 64, 128)


# ---------------------------------------------------------------------------
# Training: world size from an epoch / total-runtime budget
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TrainingPlan:
    """A chosen world size and the evidence behind it."""

    world_size: int
    strategy: str
    epochs: int
    epoch_seconds: float        # simulated, at the chosen world
    total_seconds: float        # preprocess + epochs, at the chosen world
    gpu_seconds: float          # world x total — the cost of the choice
    meets_budget: bool          # False: no candidate met it; this is the
                                # fastest available
    sweep: tuple                # (world, epoch_s, total_s, gpu_s) per candidate

    def summary(self) -> str:
        verdict = "meets budget" if self.meets_budget else "BEST EFFORT"
        return (f"train at world={self.world_size} ({self.strategy}): "
                f"{self.epoch_seconds:.1f} s/epoch, "
                f"{self.total_seconds:.0f} s total, "
                f"{self.gpu_seconds:.0f} GPU-s [{verdict}]")


def plan_training(perf: TrainingPerfModel, *, strategy: str,
                  epochs: int = 30,
                  epoch_budget_seconds: float | None = None,
                  total_budget_seconds: float | None = None,
                  worlds: tuple[int, ...] = POW2_WORLDS) -> TrainingPlan:
    """The smallest world size whose simulated run fits the budget(s).

    At least one of ``epoch_budget_seconds`` / ``total_budget_seconds``
    must be given; when both are, a candidate must satisfy both.  If no
    candidate fits, the plan falls back to the fastest candidate by
    total time and says so via ``meets_budget=False`` — a planner must
    answer, loudly, not refuse.
    """
    if epoch_budget_seconds is None and total_budget_seconds is None:
        raise ValueError("give epoch_budget_seconds and/or "
                         "total_budget_seconds; a plan needs a budget")
    candidates = sorted(int(w) for w in worlds)
    if not candidates or candidates[0] < 1:
        raise ValueError(f"worlds must be positive, got {worlds}")
    sims = perf.sweep_worlds(strategy, candidates, epochs)
    sweep = tuple(
        (w, sim.epoch.total, sim.total_seconds,
         gpu_seconds(w, sim.total_seconds))
        for w, sim in zip(candidates, sims))
    chosen = None
    for row in sweep:
        w, epoch_s, total_s, _ = row
        ok = ((epoch_budget_seconds is None
               or epoch_s <= epoch_budget_seconds)
              and (total_budget_seconds is None
                   or total_s <= total_budget_seconds))
        if ok:
            chosen = row
            break
    meets = chosen is not None
    if chosen is None:
        chosen = min(sweep, key=lambda row: row[2])
    w, epoch_s, total_s, gs = chosen
    return TrainingPlan(world_size=w, strategy=strategy, epochs=int(epochs),
                        epoch_seconds=epoch_s, total_seconds=total_s,
                        gpu_seconds=gs, meets_budget=meets, sweep=sweep)


# ---------------------------------------------------------------------------
# Serving: shard count from a traffic / latency budget
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ServingPlan:
    """A chosen fleet size and the queueing projection behind it."""

    shards: int
    traffic_qps: float
    slo_p99: float
    batch: int                  # assumed coalesced batch per dispatch
    service_seconds: float      # per-batch service time at this fleet
    utilization: float          # offered batch-work / capacity
    projected_latency: float    # queueing residence time per batch
    meets_slo: bool
    sweep: tuple                # (shards, rho, projected) per candidate

    def summary(self) -> str:
        verdict = "meets SLO" if self.meets_slo else "BEST EFFORT"
        proj = ("inf" if self.projected_latency == float("inf")
                else f"{self.projected_latency * 1e3:.2f} ms")
        return (f"serve at {self.shards} shard(s): rho="
                f"{self.utilization:.2f}, projected latency {proj} vs SLO "
                f"{self.slo_p99 * 1e3:.2f} ms [{verdict}]")


def plan_serving(*, traffic_qps: float, slo_p99: float,
                 service_time: Callable[[int, int], float],
                 max_batch: int = 8,
                 shard_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
                 max_utilization: float = 0.85) -> ServingPlan:
    """The smallest fleet holding ``slo_p99`` under ``traffic_qps``.

    ``service_time(batch, shards)`` prices one dispatch — pass the same
    model the service runs with (e.g. the two-argument form of
    :func:`~repro.elastic.autoscaler.shard_scaled_service_time`'s
    closure).  The projection assumes full coalescing (dispatches of
    ``max_batch``) and an M/M/1-style queue: utilization is
    ``(traffic / batch) x service``, projected latency is
    :func:`queueing_latency`, and a candidate qualifies when the
    projection fits the SLO at utilization below ``max_utilization``
    (headroom for burstiness the mean-value model cannot see).  If no
    candidate qualifies, the largest fleet is returned with
    ``meets_slo=False``.
    """
    if traffic_qps <= 0:
        raise ValueError(f"traffic_qps must be positive, got {traffic_qps}")
    if slo_p99 <= 0:
        raise ValueError(f"slo_p99 must be positive, got {slo_p99}")
    if not 0 < max_utilization < 1:
        raise ValueError(f"max_utilization must be in (0, 1), "
                         f"got {max_utilization}")
    batch = int(max_batch)
    dispatch_rate = traffic_qps / batch
    candidates = sorted(int(s) for s in shard_counts)
    sweep = []
    chosen = None
    for s in candidates:
        svc = float(service_time(batch, s))
        rho = dispatch_rate * svc
        projected = queueing_latency(svc, rho)
        sweep.append((s, svc, rho, projected))
        if (chosen is None and rho <= max_utilization
                and projected <= slo_p99):
            chosen = sweep[-1]
    meets = chosen is not None
    if chosen is None:
        chosen = sweep[-1]
    s, svc, rho, projected = chosen
    return ServingPlan(shards=s, traffic_qps=float(traffic_qps),
                       slo_p99=float(slo_p99), batch=batch,
                       service_seconds=svc, utilization=rho,
                       projected_latency=projected, meets_slo=meets,
                       sweep=tuple(sweep))


def autoscaler_setpoints(*, low_qps: float, peak_qps: float, slo_p99: float,
                         service_time: Callable[[int, int], float],
                         max_batch: int = 8,
                         shard_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
                         max_utilization: float = 0.85,
                         **policy_kwargs) -> AutoscalerPolicy:
    """Derive an :class:`AutoscalerPolicy` from a traffic envelope.

    Plans the quiet-hours floor (``low_qps``) and the peak ceiling
    (``peak_qps``) with :func:`plan_serving` and uses them as the
    autoscaler's ``min_shards``/``max_shards`` — the fleet never burns
    capacity below what quiet traffic needs nor chases load beyond what
    the peak plan says can help.  Extra keyword arguments pass through
    to the policy (thresholds, cooldown, transition cost).
    """
    low = plan_serving(traffic_qps=low_qps, slo_p99=slo_p99,
                       service_time=service_time, max_batch=max_batch,
                       shard_counts=shard_counts,
                       max_utilization=max_utilization)
    peak = plan_serving(traffic_qps=peak_qps, slo_p99=slo_p99,
                        service_time=service_time, max_batch=max_batch,
                        shard_counts=shard_counts,
                        max_utilization=max_utilization)
    return AutoscalerPolicy(slo_p99=float(slo_p99),
                            min_shards=low.shards,
                            max_shards=max(low.shards, peak.shards),
                            **policy_kwargs)
