"""Distributed-data-parallel training over the :mod:`repro.runtime` layer.

Implements the three data strategies the paper evaluates:

- ``BASELINE_DDP`` (§5): the standard-preprocessed, Dask-distributed
  baseline.  Windowed data is spread over workers, so every step each
  worker pulls its (mostly remote) batch over the fabric before computing.
- ``DIST_INDEX`` (§4.2, distributed-index-batching): every worker keeps a
  full local index-batched copy; global shuffling is communication-free
  and the only traffic is the gradient all-reduce.
- ``GENERALIZED_INDEX`` (§5.4): raw data partitioned across workers with
  batch-level shuffling; batches are contiguous in the local partition so
  data traffic shrinks by roughly ``2 * horizon`` versus baseline DDP.

Execution model: ranks run through a
:class:`~repro.runtime.process_group.ProcessGroup`.  Each global step,
every rank's backward lands its microbatch gradient in that rank's flat
buffer (laid out like ``optimizer.grad``, see
:meth:`~repro.optim.Optimizer.bind`), the buffers are averaged with one
all-reduce (charging ring-allreduce time and bytes on a simulated
transport), and the optimizer applies the averaged gradient.

Every rank computes on the one model and the one loader.  Sequential
ranks (``sim``, or the process fabric built with ``parallel=False``)
take turns: replicas of a DDP run never diverge, so one replica is every
replica.  Concurrent ranks are forked processes, and the copy-on-write
fork snapshot is each rank's replica.  Both modes produce
bitwise-identical training curves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.batching.protocols import ensure_batch_source
from repro.nn.module import assert_inference_mode
from repro.batching.samplers import (
    BatchShuffleSampler,
    GlobalShuffleSampler,
    LocalShuffleSampler,
    Sampler,
)
from repro.models.base import STModel
from repro.optim.losses import l1_loss
from repro.optim.optimizers import Optimizer, clip_grad_norm
from repro.preprocessing.scaler import StandardScaler
from repro.runtime.process_group import ProcessGroup, as_process_group
from repro.training.metrics import masked_abs_error
from repro.training.step import average_and_apply
from repro.utils.errors import CheckpointError, CommunicatorError


class DDPStrategy(enum.Enum):
    """Data-distribution strategy (see module docstring)."""

    BASELINE_DDP = "baseline-ddp"
    DIST_INDEX = "distributed-index-batching"
    GENERALIZED_INDEX = "generalized-distributed-index-batching"


_SHUFFLE_SAMPLERS: dict[str, type[Sampler]] = {
    "global": GlobalShuffleSampler,
    "local": LocalShuffleSampler,
    "batch": BatchShuffleSampler,
}


@dataclass
class DDPEpochRecord:
    """Per-epoch outcomes of distributed training."""

    epoch: int
    train_loss: float
    val_mae: float
    sim_seconds: float       # simulated wall time of the epoch
    comm_seconds: float      # mean per-rank communication share
    compute_seconds: float   # mean per-rank compute share


class DDPTrainer:
    """DDP training of one model over ``world_size`` ranks."""

    def __init__(self, model: STModel, optimizer: Optimizer,
                 comm: ProcessGroup, train_loader, val_loader=None, *,
                 strategy: DDPStrategy = DDPStrategy.DIST_INDEX,
                 shuffle: str | None = None,
                 scaler: StandardScaler | None = None,
                 loss_fn: Callable = l1_loss, clip_norm: float = 5.0,
                 step_time_fn: Callable[[int], float] | None = None,
                 batch_bytes_fn: Callable[[int], int] | None = None,
                 seed: int | str = 0,
                 checkpoint_every: int | None = None,
                 checkpoint_path: str | None = None):
        """
        Parameters
        ----------
        comm: a :class:`ProcessGroup` (``ProcessGroup.sim(world)`` /
            ``ProcessGroup.processes(world)``) or a bare transport.
        step_time_fn: maps microbatch size -> simulated compute seconds
            (defaults to the model's analytic flop model on an A100).
        batch_bytes_fn: maps microbatch size -> bytes a worker must pull
            for that batch under ``BASELINE_DDP`` (windowed bytes) or
            ``GENERALIZED_INDEX`` (raw-range bytes).  Defaults derive from
            the loader's array shapes.
        shuffle: 'global' | 'local' | 'batch'; defaults to the paper's
            choice per strategy (global for DDP/dist-index, batch for
            generalized).
        checkpoint_every: write a resumable training checkpoint to
            ``checkpoint_path`` every this many global steps (``None`` =
            never).  A run killed between checkpoints resumes from the
            last one and replays the missing steps bitwise (see
            :meth:`resume`).
        checkpoint_path: where periodic checkpoints land (atomic
            overwrite of one ``.npz``); required when
            ``checkpoint_every`` is set.
        """
        self.model = model
        self.optimizer = optimizer
        self.comm = as_process_group(comm)
        self.world_size = self.comm.world_size
        self.train_loader = ensure_batch_source(train_loader, "train_loader")
        self.val_loader = (None if val_loader is None
                           else ensure_batch_source(val_loader, "val_loader"))
        self.strategy = strategy
        self.scaler = scaler
        self.loss_fn = loss_fn
        self.clip_norm = clip_norm
        self.seed = seed
        if shuffle is None:
            shuffle = ("batch" if strategy is DDPStrategy.GENERALIZED_INDEX
                       else "global")
        if shuffle not in _SHUFFLE_SAMPLERS:
            raise ValueError(f"shuffle must be one of {sorted(_SHUFFLE_SAMPLERS)}")
        self.shuffle = shuffle
        self.sampler = _SHUFFLE_SAMPLERS[shuffle](
            train_loader.num_snapshots, train_loader.batch_size,
            world_size=self.world_size, seed=seed)
        self.step_time_fn = step_time_fn or self._default_step_time
        self.batch_bytes_fn = batch_bytes_fn or self._default_batch_bytes
        self.history: list[DDPEpochRecord] = []
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(f"checkpoint_every must be >= 1, "
                                 f"got {checkpoint_every}")
            if checkpoint_path is None:
                raise ValueError("checkpoint_every needs a checkpoint_path")
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.global_step = 0
        self._resume_cursor: tuple[int, int, list[float]] | None = None
        # Fault-injecting transports expose begin_step; everything else
        # simply has no hook to notify.
        self._begin_step = getattr(self.comm.transport, "begin_step", None)
        self._param_bytes = sum(
            p.nbytes for p in optimizer.params if p.requires_grad)

        self._grad_bufs = [np.zeros_like(optimizer.grad)
                           for _ in range(self.world_size)]
        # Process-isolated fabrics adopt each rank's gradient buffer (e.g.
        # re-backing it on shared memory) so gradients written inside a
        # rank child land where the driver reduces from.
        attach = getattr(self.comm.transport, "attach_rank_buffers", None)
        if attach is not None:
            self._grad_bufs = [attach(rank, [buf])[0]
                               for rank, buf in enumerate(self._grad_bufs)]

    # ------------------------------------------------------------------
    def _default_step_time(self, batch: int) -> float:
        from repro.hardware.specs import A100_FP32_FLOPS
        return self.model.flops_per_snapshot() * batch / (A100_FP32_FLOPS * 0.25)

    def _default_batch_bytes(self, batch: int) -> int:
        x, y = self.train_loader.batch_at(np.arange(min(
            self.train_loader.batch_size, self.train_loader.num_snapshots)))
        per_snapshot = (x.nbytes + y.nbytes) / len(x)
        if self.strategy is DDPStrategy.GENERALIZED_INDEX:
            # A contiguous batch of B starts covers B + 2h - 1 raw entries:
            # ~2*horizon less volume than the windowed batch.
            h = x.shape[1]
            per_snapshot /= (2.0 * h)
        return int(per_snapshot * batch)

    def _charge_data_comm(self, batch: int) -> None:
        """Per-step data traffic for the active strategy."""
        if self.strategy is DDPStrategy.DIST_INDEX or self.world_size == 1:
            return
        remote_fraction = 1.0 - 1.0 / self.world_size
        per_rank = int(self.batch_bytes_fn(batch) * remote_fraction)
        self.comm.fetch_all(per_rank * self.world_size,
                            messages_per_rank=1, category="data")

    # ------------------------------------------------------------------
    def _microbatch_grads(self, rank: int, sel: np.ndarray) -> float:
        """One rank's microbatch gradient, landed in its flat buffer.

        Returns the scalar loss; the gradient leaves through
        ``self._grad_bufs[rank]``.
        """
        x, y = self.train_loader.batch_at(sel)
        pred = self.model(Tensor(x))
        loss = self.loss_fn(pred, y[..., :1].astype(np.float32))
        self.optimizer.bind(self._grad_bufs[rank])
        loss.backward()
        if self.clip_norm:
            clip_grad_norm(self.optimizer.params, self.clip_norm)
        return float(loss.item())

    def train_epoch(self, epoch: int) -> float:
        """One synchronized epoch across all ranks; returns mean loss.

        A trainer resumed mid-epoch (see :meth:`resume`) skips the steps
        the checkpoint already applied and folds their recorded losses
        into the epoch mean, so the resumed curve is bitwise identical
        to an uninterrupted run.
        """
        self.model.train()
        plan = self.sampler.epoch_plan(epoch)
        steps = min(len(b) for b in plan)
        if steps == 0:
            raise CommunicatorError(
                "epoch plan has a rank with zero batches; reduce world size "
                "or batch size")
        start_step, losses = 0, []
        if self._resume_cursor is not None and self._resume_cursor[0] == epoch:
            _, start_step, losses = self._resume_cursor
            self._resume_cursor = None
        for step in range(start_step, steps):
            if self._begin_step is not None:
                self._begin_step(self.global_step)

            def rank_step(rank: int) -> float:
                sel = plan[rank][step]
                self._charge_rank_compute(rank, len(sel))
                return self._microbatch_grads(rank, sel)

            losses.extend(self.comm.run_ranks(rank_step))
            self._charge_data_comm(len(plan[0][step]))
            average_and_apply(self.comm, self._grad_bufs, self.optimizer)
            self.global_step += 1
            if (self.checkpoint_every
                    and self.global_step % self.checkpoint_every == 0):
                self.save_training_checkpoint(
                    epoch=epoch, step=step + 1, losses=losses,
                    epoch_steps=steps)
        return float(np.mean(losses))

    def _charge_rank_compute(self, rank: int, batch: int) -> None:
        self.comm.advance_compute(rank, self.step_time_fn(batch))

    # ------------------------------------------------------------------
    # Checkpoint / resume (the fault-tolerance seam)
    # ------------------------------------------------------------------
    def save_training_checkpoint(self, path: str | None = None, *,
                                 epoch: int | None = None,
                                 step: int | None = None,
                                 losses: list[float] | None = None,
                                 epoch_steps: int | None = None) -> str:
        """Atomically write a *resumable* checkpoint: model + optimizer
        slots plus the training cursor (epoch, step-in-epoch, the epoch's
        per-rank losses so far) and completed-epoch history.

        ``step`` is the number of steps of ``epoch`` already applied;
        everything needed to replay the rest of the run bitwise is in the
        archive — the samplers are pure functions of (seed, epoch), so no
        RNG state needs to survive.  ``epoch_steps`` (when known) records
        the epoch's total step count, which lets :meth:`resume`
        distinguish an epoch-boundary cursor from a genuinely mid-epoch
        one.  The per-rank ``batch_size`` is recorded too: together with
        ``world_size`` it defines the *global batch*, which a resume at
        another world must keep.  Given neither ``epoch`` nor ``step``, a
        trainer resumed and not yet fitted saves the cursor it resumed
        at; otherwise ``epoch`` defaults to the next one and ``step`` to 0.
        """
        from repro.training.checkpoint import save_checkpoint

        path = path or self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path configured or given")
        if epoch is None and step is None and self._resume_cursor is not None:
            epoch, step, losses = self._resume_cursor
            epoch_steps = min(map(len, self.sampler.epoch_plan(epoch)))
        state = {
            "epoch": int(len(self.history) if epoch is None else epoch),
            "step": int(step or 0),
            "global_step": int(self.global_step),
            "epoch_losses": [float(x) for x in (losses or [])],
            "world_size": int(self.world_size),
            "batch_size": int(self.train_loader.batch_size),
            "epoch_steps": None if epoch_steps is None else int(epoch_steps),
            "strategy": self.strategy.value,
            "shuffle": self.shuffle,
            "seed": self.seed,
            "history": [vars(r).copy() for r in self.history],
        }
        scaler = (self.scaler
                  if self.scaler is not None and self.scaler.fitted else None)
        save_checkpoint(path, self.model, self.optimizer,
                        epoch=state["epoch"],
                        extra={"training_state": state}, scaler=scaler)
        return path

    def resume(self, path: str | None = None) -> dict:
        """Restore a :meth:`save_training_checkpoint` archive in place.

        Every rank holds a full replica of the model and optimizer state,
        so an archive's only world-dependent state is its training
        cursor.  Any world whose *global batch* (``world x`` per-rank
        batch) is the archive's resumes it: a global step then covers the
        same samples at every world, so ``epoch``, ``step`` and
        ``global_step`` carry over unchanged.  At the archive's own world
        the continuation is bitwise; at another it matches a fresh run at
        that world to ~1e-6 under the ``global`` shuffle (gradient
        averaging regroups float sums), and is deterministic under
        ``batch``/``local``, whose per-rank order keys on the partition.
        A mid-epoch cursor moves world only under ``global``; its partial
        epoch's losses become ``step x world`` copies of their mean, so
        the finished epoch's mean stays the sample mean.  An archive that
        records no per-rank batch resumes only at its own world.

        A different global batch, ``strategy``, ``shuffle`` or ``seed``
        changes every update or the data order, and fails loudly; a
        forged cursor is a :class:`~repro.utils.errors.CheckpointError`
        naming the path and the field.  The *transport* may differ —
        ``sim`` and ``process`` ranks train identical bits (pinned by the
        fabric suite), so a run checkpointed under one resumes under the
        other.

        Charges the parameter re-broadcast every real recovery performs
        (rank 0 restores, peers pull) under the ``"recovery"`` traffic
        category, then positions the trainer so the next :meth:`fit`
        continues mid-epoch.  Returns the checkpoint metadata.
        """
        from repro.training.checkpoint import _meta_from, _read_archive, \
            load_checkpoint

        path = path or self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path configured or given")
        arrays = _read_archive(path)
        meta = _meta_from(arrays, path)
        state = (meta.get("extra") or {}).get("training_state")
        if state is None:
            raise ValueError(
                f"{path} is not a resumable training checkpoint (no "
                f"training cursor); write it with save_training_checkpoint")
        for field_name, mine in (("strategy", self.strategy.value),
                                 ("shuffle", self.shuffle),
                                 ("seed", self.seed)):
            if state[field_name] != mine:
                raise ValueError(
                    f"checkpoint {field_name}={state[field_name]!r} does "
                    f"not match this trainer's {mine!r}; the data order "
                    f"diverges, so resuming cannot reproduce the run")
        losses = self._cursor_losses(path, state)
        load_checkpoint(path, self.model, self.optimizer, arrays=arrays)
        self.history = [DDPEpochRecord(**r) for r in state["history"]]
        self.global_step = int(state["global_step"])
        self._resume_cursor = (int(state["epoch"]), int(state["step"]),
                               losses)
        # Real recovery re-broadcasts the restored parameters from the
        # restoring rank to every peer before training continues.
        self.comm.transport.collective("broadcast", self._param_bytes,
                                       "recovery")
        return meta

    def _cursor_losses(self, path: str, state: dict) -> list[float]:
        """Check the archive's cursor, and map its partial epoch's loss
        entries to this world (the rules :meth:`resume` states)."""
        world, batch = int(state["world_size"]), state.get("batch_size")
        step, steps = int(state["step"]), state.get("epoch_steps")
        losses = [float(x) for x in state["epoch_losses"]]
        problems = [(name, f"{state[name]} is below {low}")
                    for name, low in (("epoch", 0), ("step", 0),
                                      ("world_size", 1), ("batch_size", 1))
                    if state.get(name) is not None and int(state[name]) < low]
        if steps is not None and step > int(steps):
            problems.append(("step", f"{step} exceeds epoch_steps {steps}"))
        if len(losses) != step * world:
            problems.append(("epoch_losses",
                             f"holds {len(losses)} entries, not step x "
                             f"world_size = {step * world}"))
        if problems:
            name, why = problems[0]
            raise CheckpointError(
                f"checkpoint {path!r} has a forged training cursor: "
                f"{name} {why}")
        if batch is None:
            if world != self.world_size:
                raise ValueError(
                    f"checkpoint {path!r} records no per-rank batch_size, "
                    f"so its global batch is unknown: it resumes only at "
                    f"its own world of {world} ranks, not "
                    f"{self.world_size} — rebuild the trainer with "
                    f"world_size={world}")
            return losses
        mine = int(self.train_loader.batch_size)
        total = world * int(batch)
        if total != self.world_size * mine:
            fix = (f"the loaders with batch_size={total // self.world_size}"
                   f", or " if total % self.world_size == 0 else "")
            raise ValueError(
                f"checkpoint {path!r} was cut at a global batch of {total} "
                f"(a world of {world} ranks x {batch} per rank) but this "
                f"trainer's is {self.world_size * mine} ({self.world_size} "
                f"x {mine}): step boundaries would shift, so the "
                f"continuation cannot reproduce the run — rebuild {fix}"
                f"the trainer with world_size={world}")
        if world == self.world_size or step == 0 or step == steps:
            return losses
        if self.shuffle != "global":
            raise ValueError(
                f"cursor sits mid-epoch (step {step}"
                + (f" of {steps}" if steps is not None else "")
                + f") under shuffle={self.shuffle!r}, whose per-rank order "
                f"depends on the partition: a {self.world_size}-rank world "
                f"cannot reconstruct the walked prefix.  Resume from an "
                f"epoch-boundary checkpoint (checkpoint_every a multiple "
                f"of the epoch's steps, or the end-of-run save) instead")
        return [float(np.mean(losses))] * (step * self.world_size)

    # ------------------------------------------------------------------
    def evaluate(self, loader=None) -> float:
        """Distributed validation: ranks evaluate partitions, all-reduce.

        Mirrors the paper's note that validation accuracy uses AllReduce.
        Each rank contributes its ``(abs-error sum, unmasked count)`` pair
        and the sums are reduced, so the result equals the masked MAE over
        the concatenated snapshots regardless of how partition sizes or
        missing-data fractions vary across ranks (empty ranks contribute
        nothing instead of biasing the mean toward zero).  The ranks run
        their slices in one ``comm.run_ranks`` call, charged as in
        :meth:`train_epoch` (forked children on the process fabric).
        """
        loader = loader or self.val_loader
        if loader is None:
            raise ValueError("no evaluation loader provided")
        self.model.eval()
        n = loader.num_snapshots
        bounds = np.linspace(0, n, self.world_size + 1).astype(int)

        def rank_partial(rank: int) -> np.ndarray:
            sel = np.arange(bounds[rank], bounds[rank + 1])
            if len(sel) == 0:
                return np.array([0.0, 0.0])
            self._charge_rank_compute(rank, len(sel))
            x, y = loader.batch_at(sel)
            pred = self.model(Tensor(x)).data[..., 0]
            truth = y[..., 0]
            if self.scaler is not None:
                pred = self.scaler.inverse_transform_channel(pred, 0)
                truth = self.scaler.inverse_transform_channel(truth, 0)
            abs_sum, count = masked_abs_error(pred, truth)
            return np.array([abs_sum, float(count)])

        with no_grad():
            assert_inference_mode(self.model)
            partials = self.comm.run_ranks(rank_partial)
        reduced = self.comm.allreduce(partials, op="sum", category="metric")
        total_abs, total_count = reduced[0]
        if total_count == 0:
            return float("nan")
        return float(total_abs / total_count)

    # ------------------------------------------------------------------
    def fit(self, epochs: int, *, verbose: bool = False
            ) -> list[DDPEpochRecord]:
        start_epoch = (self._resume_cursor[0]
                       if self._resume_cursor is not None
                       else len(self.history))
        for epoch in range(start_epoch, epochs):
            t0 = self.comm.now
            c0 = self.comm.elapsed_breakdown()
            loss = self.train_epoch(epoch)
            val = (self.evaluate() if self.val_loader is not None
                   else float("nan"))
            c1 = self.comm.elapsed_breakdown()
            self.history.append(DDPEpochRecord(
                epoch=epoch, train_loss=loss, val_mae=val,
                sim_seconds=self.comm.now - t0,
                comm_seconds=c1["comm"] - c0["comm"],
                compute_seconds=c1["compute"] - c0["compute"]))
            if verbose:
                print(f"epoch {epoch:3d}  loss {loss:.4f}  "
                      f"val MAE {val:.4f}  "
                      f"({self.history[-1].sim_seconds * 1e3:.3f} sim-ms "
                      f"x{self.world_size} ranks)")
        return self.history

    def best_val_mae(self) -> float:
        vals = [r.val_mae for r in self.history if np.isfinite(r.val_mae)]
        return min(vals) if vals else float("nan")
