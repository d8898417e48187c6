"""Crash-and-resume orchestration: keep training through rank failures.

Production DDP jobs survive hardware faults by checkpointing
periodically and relaunching from the last checkpoint when a rank dies.
:func:`train_with_recovery` is that relaunch loop, in process: build a
fresh trainer, resume it from the checkpoint (if one exists yet),
train, and on :class:`~repro.runtime.faults.RankFailure` start over —
carrying the set of already-fired fault events across restarts so an
injected crash does not refire on the replayed steps.

Because every component is deterministic — samplers are pure functions
of (seed, epoch), optimizer state is checkpointed exactly, and
collectives reduce in rank order — the recovered run's loss curve is
**bitwise identical** to an uninterrupted run; the chaos tier pins this
for all three data strategies.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from repro.runtime.faults import FaultyTransport, RankFailure
from repro.training.ddp import DDPEpochRecord, DDPTrainer


def _reshard_to_trainer(path: str, trainer: DDPTrainer, *,
                        verbose: bool = False) -> None:
    """Re-partition ``path`` to the trainer's world if they disagree."""
    from repro.elastic.reshard import reshard_checkpoint
    from repro.training.checkpoint import read_checkpoint_meta

    state = (read_checkpoint_meta(path).get("extra")
             or {}).get("training_state")
    if state is None or int(state["world_size"]) == trainer.world_size:
        return
    report = reshard_checkpoint(path, trainer.world_size)
    if verbose:
        print(f"recovery: {report.summary()}")


@dataclass
class RecoveryReport:
    """What the relaunch loop observed across a run's lifetime."""

    restarts: int = 0
    failures: list[dict] = field(default_factory=list)
    attempt_seconds: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Transport time summed over every attempt (aborted + final) —
        simulated seconds on a sim fabric, wall seconds on processes."""
        return float(sum(self.attempt_seconds))


def train_with_recovery(make_trainer: Callable[[], DDPTrainer],
                        epochs: int, *, max_restarts: int = 8,
                        elastic: bool = False,
                        verbose: bool = False
                        ) -> tuple[DDPTrainer, list[DDPEpochRecord],
                                   RecoveryReport]:
    """Run ``make_trainer().fit(epochs)`` to completion through crashes.

    Parameters
    ----------
    make_trainer:
        builds a *fresh* trainer — new model, optimizer and process
        group — configured with ``checkpoint_every``/``checkpoint_path``.
        Determinism contract: every call must produce identically
        initialised state (same seeds), or resumed curves cannot match.
    epochs:
        the fit budget, same meaning as :meth:`DDPTrainer.fit`.
    max_restarts:
        give up after this many relaunches — an MTBF so low that
        training cannot outrun it.  Exceeding the cap raises a loud
        ``RuntimeError`` that lists every fault event fired across the
        attempts (chained to the last :class:`RankFailure`), so a run
        killed by its own fault plan is diagnosable from the traceback
        alone.
    elastic:
        allow relaunches to come back with a *different world size* — a
        node lost for good, or capacity granted back mid-run.  When the
        fresh trainer's world differs from the checkpoint's, the
        checkpoint is re-partitioned in place through
        :func:`repro.elastic.reshard_checkpoint` (global batch
        preserved) before resuming; ``make_trainer`` must size its
        loaders so ``world x batch`` stays constant across calls.
        Without the flag a shrunken relaunch keeps failing loudly, as
        before.

    Returns ``(trainer, history, report)``: the surviving trainer, the
    full epoch history (identical to an uninterrupted run's), and the
    restart accounting.
    """
    fired: set[int] = set()
    report = RecoveryReport()
    while True:
        trainer = make_trainer()
        transport = trainer.comm.transport
        if isinstance(transport, FaultyTransport):
            transport.fired |= fired
        path = trainer.checkpoint_path
        if path and os.path.exists(path):
            if elastic:
                _reshard_to_trainer(path, trainer, verbose=verbose)
            trainer.resume(path)
        try:
            history = trainer.fit(epochs)
            report.attempt_seconds.append(trainer.comm.now)
            return trainer, history, report
        except RankFailure as failure:
            if isinstance(transport, FaultyTransport):
                fired |= transport.fired
            # Abandoned attempts must not leak fabric resources (shm
            # pools) across what may be many restarts.
            shutdown = getattr(transport, "shutdown", None)
            if shutdown is not None:
                shutdown()
            report.restarts += 1
            report.failures.append({"rank": failure.rank,
                                    "step": failure.step})
            report.attempt_seconds.append(trainer.comm.now)
            if verbose:
                print(f"recovery: {failure}; restart "
                      f"{report.restarts}/{max_restarts}")
            if report.restarts > max_restarts:
                events = "none recorded"
                if isinstance(transport, FaultyTransport):
                    events = ("; ".join(
                        transport.plan.events[i].encode()
                        for i in sorted(fired)) or "none recorded")
                raise RuntimeError(
                    f"training gave up after {report.restarts} restarts "
                    f"(max_restarts={max_restarts}); last failure: "
                    f"{failure}; fired fault events: {events}"
                ) from failure
