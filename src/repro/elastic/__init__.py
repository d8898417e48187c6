"""Elastic scale: live world-size resharding and capacity planning.

Two pieces that let the reproduction's training stack change size
*while holding its determinism contract*:

- :mod:`repro.elastic.reshard` — rewrite a training checkpoint for a
  new world size, preserving the global batch so the continuation
  matches a fresh run at the new world where the data strategy allows.
- :mod:`repro.elastic.planner` — the world size a training budget
  needs, from the analytic perf/cost models.
"""

from repro.elastic.planner import TrainingPlan, plan_training
from repro.elastic.reshard import (
    WORLD_INVARIANT_SHUFFLES,
    ReshardReport,
    reshard_checkpoint,
)

__all__ = [
    "ReshardReport",
    "TrainingPlan",
    "WORLD_INVARIANT_SHUFFLES",
    "plan_training",
    "reshard_checkpoint",
]
