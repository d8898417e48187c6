"""Capacity planning: pick a training world size from a budget, analytically.

How many ranks should a training run relaunch with?  This module
answers from the repository's existing analytic model instead of
inventing a new one — :class:`~repro.training.perfmodel.TrainingPerfModel`
prices training epochs (and :meth:`reshard_seconds` prices the world
change itself).

The planner is a deliberately conservative picker, not an optimizer: it
sweeps a small candidate ladder (powers of two) and returns the
*smallest* world that meets the budget, because the cost axis
(:func:`~repro.cluster.costmodel.gpu_seconds`) always grows with size
while the benefit saturates at the scaling knee the paper measures.
Every candidate's numbers ride along in ``sweep`` so a caller can audit
the choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.costmodel import gpu_seconds
from repro.training.perfmodel import TrainingPerfModel

POW2_WORLDS = (1, 2, 4, 8, 16, 32, 64, 128)


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
