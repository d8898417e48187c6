"""The ``run(spec)`` executor: one entry point for every training scenario.

Assembles dataset → loaders → model → optimizer → trainer purely from the
registries a :class:`~repro.api.spec.RunSpec` names, trains, and returns a
uniform :class:`RunResult` (curves, best validation MAE, wall-clock runtime
of preprocessing + training, peak bytes charged to the run's memory space).
Every experiment module and example routes through here; hand-wired
pipelines only remain where an experiment measures something ``run`` cannot
express (e.g. the OOM traces of the full-scale memory simulations).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from repro.api.builders import LoaderBundle, ModelContext, default_in_features
from repro.api.registry import BATCHINGS, DATASETS, MODELS, OPTIMIZERS
from repro.api.scales import Scale, get_scale
from repro.api.spec import RunSpec
from repro.hardware.memory import MemorySpace
from repro.runtime import (
    FaultPlan,
    FaultyTransport,
    ProcessGroup,
    ProcessTransport,
    SimTransport,
    ThreadTransport,
)
from repro.training.ddp import DDPStrategy, DDPTrainer
from repro.training.recovery import train_with_recovery
from repro.training.trainer import Trainer

_DDP_STRATEGIES = {
    "baseline-ddp": DDPStrategy.BASELINE_DDP,
    "dist-index": DDPStrategy.DIST_INDEX,
    "generalized-index": DDPStrategy.GENERALIZED_INDEX,
}

#: Generated datasets, keyed by (builder, nodes, entries, seed).  Generation
#: is deterministic and both preprocessing pipelines copy before writing,
#: so sweeps (table5, figure8, ...) share one dataset per grid instead of
#: regenerating identical arrays for every point.  Keying on the builder
#: object (not just the name) means a registry overwrite naturally misses
#: the cache instead of serving data from the replaced builder.
_DATASET_CACHE: dict[tuple, Any] = {}
_DATASET_CACHE_MAX = 8


def _load_cached_dataset(name: str, nodes: int, entries: int,
                         seed: int | str):
    builder = DATASETS.get(name)
    key = (builder, nodes, entries, seed)
    if key not in _DATASET_CACHE:
        if len(_DATASET_CACHE) >= _DATASET_CACHE_MAX:
            _DATASET_CACHE.pop(next(iter(_DATASET_CACHE)))
        _DATASET_CACHE[key] = builder(nodes=nodes, entries=entries, seed=seed)
    return _DATASET_CACHE[key]


@dataclass
class RunArtifacts:
    """Live objects a finished run leaves behind for further analysis."""

    dataset: Any
    loaders: LoaderBundle
    model: Any
    optimizer: Any
    trainer: Any
    context: ModelContext


@dataclass
class RunResult:
    """Uniform outcome of one :func:`run` call.

    ``artifacts`` holds the trained model, loaders, scaler and trainer for
    follow-up evaluation (test metrics, forecasting, comm-traffic stats);
    it is excluded from :meth:`to_dict`, which keeps only plain scalars.
    """

    spec: RunSpec
    epochs_run: int
    train_curve: list[float]
    val_curve: list[float]
    best_val_mae: float
    runtime_seconds: float
    peak_bytes: int
    restarts: int = 0  # failure-recovery relaunches (0 for fault-free runs)
    artifacts: RunArtifacts = field(repr=False, compare=False, default=None)

    @property
    def final_train_loss(self) -> float:
        return self.train_curve[-1] if self.train_curve else float("nan")

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "epochs_run": self.epochs_run,
            "train_curve": list(self.train_curve),
            "val_curve": list(self.val_curve),
            "best_val_mae": self.best_val_mae,
            "runtime_seconds": self.runtime_seconds,
            "peak_bytes": self.peak_bytes,
            "restarts": self.restarts,
        }


def run(spec: RunSpec, *, scale: Scale | None = None,
        space: MemorySpace | None = None, verbose: bool = False) -> RunResult:
    """Execute one training scenario described by ``spec``.

    Parameters
    ----------
    spec:
        the declarative run description; all component keys are resolved
        through the ``repro.api`` registries.
    scale:
        escape hatch for a custom (unregistered) :class:`Scale` object;
        when given it overrides the preset named by ``spec.scale``.
    space:
        memory space charged by preprocessing (defaults to a fresh
        unbounded space named after the run).
    """
    if not isinstance(spec, RunSpec):
        raise TypeError(f"expected RunSpec, got {type(spec).__name__}; "
                        f"build one with RunSpec(...) or RunSpec.from_dict")
    scale = get_scale(spec.scale) if scale is None else scale
    ds = _load_cached_dataset(spec.dataset, scale.nodes, scale.entries,
                              spec.seed)
    horizon = scale.horizon or ds.spec.horizon
    space = space if space is not None else MemorySpace(
        f"{spec.dataset}:{spec.batching}")

    # Runtime covers preprocessing + training, matching the paper's
    # end-to-end comparisons (Table 3 measures both stages together).
    t0 = time.perf_counter()
    bundle: LoaderBundle = BATCHINGS.get(spec.batching)(
        ds, horizon, scale.batch_size, space)

    ctx = ModelContext(graph=ds.graph, horizon=horizon,
                       in_features=default_in_features(ds),
                       hidden_dim=scale.hidden_dim, seed=spec.seed)
    epochs = spec.epochs if spec.epochs is not None else scale.epochs
    restarts = 0
    if spec.strategy == "single":
        model = MODELS.get(spec.model)(ctx)
        trainable = [p for p in model.parameters() if p.requires_grad]
        optimizer = OPTIMIZERS.get(spec.optimizer)(trainable, spec.lr)
        trainer = Trainer(model, optimizer, bundle.train, bundle.val,
                          scaler=bundle.scaler, seed=spec.seed)
        history = trainer.fit(epochs, verbose=verbose)
    elif spec.faults:
        # Chaos scenario: inject the scheduled faults through a
        # FaultyTransport and train with checkpoint/restart recovery.
        # Every restart rebuilds model + optimizer from the seed and
        # resumes from the last per-step checkpoint, so the finished
        # curve is bitwise identical to a fault-free run.
        trainer, history, report = _run_with_faults(
            spec, ctx, bundle, epochs, verbose=verbose)
        model, optimizer = trainer.model, trainer.optimizer
        restarts = report.restarts
    else:
        trainer = _build_ddp_trainer(spec, ctx, bundle)
        model, optimizer = trainer.model, trainer.optimizer
        history = trainer.fit(epochs, verbose=verbose)
    runtime = time.perf_counter() - t0

    return RunResult(
        spec=spec,
        epochs_run=len(history),
        train_curve=[h.train_loss for h in history],
        val_curve=[h.val_mae for h in history],
        best_val_mae=trainer.best_val_mae(),
        runtime_seconds=runtime,
        peak_bytes=space.peak,
        restarts=restarts,
        artifacts=RunArtifacts(dataset=ds, loaders=bundle, model=model,
                               optimizer=optimizer, trainer=trainer,
                               context=ctx))


def _build_ddp_trainer(spec: RunSpec, ctx: ModelContext,
                       bundle: LoaderBundle, *,
                       plan: FaultPlan | None = None,
                       checkpoint_path: str | None = None) -> DDPTrainer:
    """One distributed trainer wired exactly as ``spec`` describes.

    The single construction point for both the fault-free path and every
    relaunch attempt of the fault path: model + optimizer built from the
    seed, the transport chosen by ``spec.transport`` ('sim' = sequential
    ranks with simulated cost accounting; 'thread' = one real thread per
    rank on per-rank replicas — the model builder is deterministic in
    the seed, so replicas initialise identically; 'process' = one forked
    interpreter per rank, where the fork snapshot is the replica),
    optionally wrapped in a :class:`FaultyTransport` and
    configured for per-step checkpointing.
    """
    model = MODELS.get(spec.model)(ctx)
    trainable = [p for p in model.parameters() if p.requires_grad]
    optimizer = OPTIMIZERS.get(spec.optimizer)(trainable, spec.lr)
    factory = None
    if spec.transport == "thread":
        base = ThreadTransport(spec.world_size)
        factory = lambda: MODELS.get(spec.model)(ctx)  # noqa: E731
    elif spec.transport == "process":
        base = ProcessTransport(spec.world_size)
    else:
        base = SimTransport(spec.world_size)
    transport = base if plan is None else FaultyTransport(base, plan)
    return DDPTrainer(
        model, optimizer, ProcessGroup(transport), bundle.train, bundle.val,
        strategy=_DDP_STRATEGIES[spec.strategy], shuffle=spec.shuffle,
        scaler=bundle.scaler, seed=spec.seed, model_factory=factory,
        checkpoint_every=1 if checkpoint_path else None,
        checkpoint_path=checkpoint_path)


def _run_with_faults(spec: RunSpec, ctx: ModelContext, bundle: LoaderBundle,
                     epochs: int, *, verbose: bool = False):
    """Distributed training under an injected fault plan.

    Builds a fresh trainer per attempt (the recovery contract: model,
    optimizer and process group are relaunch state, only the checkpoint
    survives) and hands the relaunch loop to
    :func:`~repro.training.recovery.train_with_recovery`.  Checkpoints
    land in a private temp directory, every step — maximal coverage for
    the tiny scales ``run`` executes at.
    """
    plan = FaultPlan.from_spec(spec.faults, seed=spec.seed)
    ckpt_dir = tempfile.mkdtemp(prefix="repro-faults-")
    ckpt = os.path.join(ckpt_dir, "recovery.npz")
    try:
        return train_with_recovery(
            lambda: _build_ddp_trainer(spec, ctx, bundle, plan=plan,
                                       checkpoint_path=ckpt),
            epochs, verbose=verbose)
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
