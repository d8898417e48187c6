"""Elastic scale: live world-size resharding, autoscaling, planning.

Three pieces that let the reproduction's training and serving stacks
change size *while holding their determinism contracts*:

- :mod:`repro.elastic.reshard` — rewrite a training checkpoint for a
  new world size, preserving the global batch so the continuation
  matches a fresh run at the new world where the data strategy allows.
- :mod:`repro.elastic.autoscaler` — a p99-SLO control loop over
  :meth:`~repro.serving.sharding.ShardedSession.scale_to`, plus the
  deterministic trace runner the elastic tests drive.
- :mod:`repro.elastic.planner` — capacity plans (world and shard
  counts) from the analytic perf/cost models, feeding the autoscaler
  its setpoints.
"""

from repro.elastic.autoscaler import (
    AutoscaleEvent,
    AutoscalerPolicy,
    ElasticRunReport,
    ShardAutoscaler,
    run_autoscaled_trace,
    shard_scaled_service_time,
)
from repro.elastic.planner import (
    ServingPlan,
    TrainingPlan,
    autoscaler_setpoints,
    plan_serving,
    plan_training,
)
from repro.elastic.reshard import (
    WORLD_INVARIANT_SHUFFLES,
    ReshardReport,
    read_reshard_history,
    reshard_checkpoint,
)

__all__ = [
    "AutoscaleEvent",
    "AutoscalerPolicy",
    "ElasticRunReport",
    "ReshardReport",
    "ServingPlan",
    "ShardAutoscaler",
    "TrainingPlan",
    "WORLD_INVARIANT_SHUFFLES",
    "autoscaler_setpoints",
    "plan_serving",
    "plan_training",
    "read_reshard_history",
    "reshard_checkpoint",
    "run_autoscaled_trace",
    "shard_scaled_service_time",
]
