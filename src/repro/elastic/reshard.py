"""Checkpoint resharding: resume a training run at a different world size.

A :meth:`~repro.training.ddp.DDPTrainer.save_training_checkpoint` archive
is pinned to the world that wrote it — ``resume()`` refuses any other.
:func:`reshard_checkpoint` makes the world-size change a *supported
transformation* instead: it rewrites the archive's training cursor for a
new world while preserving the **global batch** (``world x per-rank
batch``), so every global step after the reshard covers exactly the
sample set it would have covered at the old world.

What moves, and what the guarantees are
---------------------------------------
- **Parameters, optimizer slots, scaler stats** are copied *bitwise*.
  This repository's DDP keeps full (replicated, not ZeRO-sharded)
  optimizer state on every rank, so "re-partitioning the slots" to W'
  ranks is a lossless replicate — the per-rank broadcast is charged at
  resume time under the ``"recovery"`` traffic category.
- **The data-strategy cursor** (``epoch``, ``step``, the partial epoch's
  loss entries) is remapped.  Steps count *global* steps, which the
  preserved global batch makes world-invariant, so ``epoch``/``step``/
  ``global_step`` transfer unchanged.  A partial epoch's recorded loss
  entries are per-(rank, step) microbatch means; resuming at a new world
  would mix entry sizes and skew the epoch mean, so they are reweighted
  to ``step * new_world`` entries of their exact mean — the resumed
  epoch's recorded ``train_loss`` stays the covered-sample mean.
- **Bitwise where the strategy allows:** resharding W -> W' -> W and
  resuming at W from an epoch-boundary cursor replays the remaining run
  bit-identically to an uninterrupted one (nothing numeric was touched),
  for all three DDP strategies on every transport.
- **1e-6 elsewhere:** under a *global* shuffle (``BASELINE_DDP`` and
  ``DIST_INDEX``) the epoch permutation is world-independent and dealt
  round-robin, so a resumed W' run walks the same global-batch sample
  sets as a fresh W' run — the curves match to ~1e-6 (gradient averaging
  regroups floating-point sums across ranks, nothing more).
- **Accuracy-level for partition-dependent shuffles:** ``batch`` and
  ``local`` shuffles key their RNG streams on (rank, partition), so a
  W-trained prefix cannot replay a fresh-W' data order at any tolerance.
  Resharding is still sound *at epoch boundaries* (subsequent epochs use
  the new world's own deterministic plan); the continuation is pinned
  deterministic, and matches a fresh run at accuracy level — the paper's
  Table 5 argument that batch shuffling converges equivalently.  A
  mid-epoch cursor under these shuffles is refused loudly: the epoch
  prefix was walked in an order the new world cannot reconstruct.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from repro.training.checkpoint import _read_archive, write_archive
from repro.utils.errors import CheckpointError, ReshardError

#: Shuffles whose epoch plans cover world-invariant sample sets per
#: global step (permutation drawn once per epoch, dealt round-robin).
WORLD_INVARIANT_SHUFFLES = ("global",)


@dataclass(frozen=True)
class ReshardReport:
    """What one checkpoint reshard did."""

    path: str                   # archive the resharded state landed in
    source_path: str
    old_world: int
    new_world: int
    old_batch: int              # per-rank microbatch before
    new_batch: int              # per-rank microbatch after
    global_batch: int           # the preserved invariant
    epoch: int                  # cursor epoch (unchanged)
    step: int                   # cursor step-in-epoch (unchanged)
    midepoch: bool              # cursor sits strictly inside an epoch
    shuffle: str
    strategy: str
    param_bytes: int            # model parameter bytes copied bitwise
    slot_bytes: int             # optimizer slot bytes copied bitwise
    seconds: float              # wall time of the rewrite

    def summary(self) -> str:
        return (f"reshard {self.old_world}->{self.new_world} ranks "
                f"(batch {self.old_batch}->{self.new_batch}, global "
                f"{self.global_batch}) at epoch {self.epoch} step "
                f"{self.step}: {self.param_bytes + self.slot_bytes} state "
                f"bytes in {self.seconds * 1e3:.1f} ms")


def _training_state(arrays: dict[str, np.ndarray], path: str) -> tuple[dict, dict]:
    """Decode ``(meta, training_state)`` or raise :class:`ReshardError`."""
    blob = arrays.get("__meta__")
    if blob is None:
        raise CheckpointError(
            f"checkpoint {path!r} carries no __meta__ record; not a "
            f"repro checkpoint (or one whose metadata was destroyed)")
    try:
        meta = json.loads(bytes(blob).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} metadata is corrupted "
            f"({type(exc).__name__}: {exc})") from exc
    state = (meta.get("extra") or {}).get("training_state")
    if state is None:
        raise ReshardError(
            f"{path} is not a resumable training checkpoint (no training "
            f"cursor); only archives written by save_training_checkpoint "
            f"can be resharded")
    return meta, state


def reshard_checkpoint(path: str, new_world_size: int,
                       out_path: str | None = None, *,
                       batch_size: int | None = None) -> ReshardReport:
    """Rewrite a resumable checkpoint for ``new_world_size`` ranks.

    Parameters
    ----------
    path:
        a :meth:`DDPTrainer.save_training_checkpoint` archive.
    new_world_size:
        the target rank count.  The global batch must divide evenly:
        ``new_batch = old_world * old_batch / new_world`` must be a
        positive integer, or the reshard is refused.
    out_path:
        where the resharded archive lands; defaults to rewriting
        ``path`` in place (atomically — a crash mid-reshard leaves the
        original intact).
    batch_size:
        per-rank batch of the *writing* run, for legacy archives that
        predate the recorded ``batch_size`` field.  Ignored (but
        validated) when the archive records its own.

    Returns a :class:`ReshardReport`.  Raises :class:`ReshardError` when
    the transformation would be unsound; the original archive is never
    modified on failure.
    """
    t0 = time.perf_counter()
    new_world = int(new_world_size)
    if new_world < 1:
        raise ReshardError(f"new world size must be >= 1, got {new_world}")
    arrays = _read_archive(path)
    meta, state = _training_state(arrays, path)

    old_world = int(state["world_size"])
    old_batch = state.get("batch_size")
    if old_batch is None:
        if batch_size is None:
            raise ReshardError(
                f"{path} predates recorded batch sizes; pass batch_size= "
                f"(the per-rank batch of the run that wrote it) so the "
                f"global batch can be preserved")
        old_batch = int(batch_size)
    else:
        old_batch = int(old_batch)
        if batch_size is not None and int(batch_size) != old_batch:
            raise ReshardError(
                f"batch_size={batch_size} contradicts the archive's "
                f"recorded per-rank batch of {old_batch}")
    if old_batch < 1:
        raise ReshardError(f"per-rank batch must be >= 1, got {old_batch}")

    global_batch = old_world * old_batch
    if global_batch % new_world:
        raise ReshardError(
            f"global batch {global_batch} (= {old_world} ranks x "
            f"{old_batch} per rank) does not divide over {new_world} "
            f"ranks; pick a world size that divides it so every global "
            f"step keeps covering the same sample set")
    new_batch = global_batch // new_world

    step = int(state.get("step", 0))
    epoch_steps = state.get("epoch_steps")
    epoch_complete = epoch_steps is not None and step == int(epoch_steps)
    midepoch = step > 0 and not epoch_complete
    shuffle = state.get("shuffle", "global")
    losses = [float(x) for x in state.get("epoch_losses", [])]

    if new_world != old_world and midepoch:
        if shuffle not in WORLD_INVARIANT_SHUFFLES:
            raise ReshardError(
                f"cursor sits mid-epoch (step {step}"
                + (f" of {epoch_steps}" if epoch_steps is not None else "")
                + f") under shuffle={shuffle!r}, whose per-rank order "
                f"depends on the partition: a {new_world}-rank world "
                f"cannot reconstruct the walked prefix.  Reshard from an "
                f"epoch-boundary checkpoint (checkpoint_every a multiple "
                f"of the epoch's steps, or the end-of-run save) instead")
        # Mid-epoch global-shuffle cursors transfer: the step covers the
        # same global-batch slice of the epoch permutation at any world.
        # Reweight the partial epoch's recorded losses to new-world entry
        # counts so the finished epoch's mean stays the sample mean (old
        # entries average old_batch samples each; the continuation will
        # append new_batch-sized entries).
        if losses:
            losses = [float(np.mean(losses))] * (step * new_world)

    new_state = dict(state)
    new_state["world_size"] = new_world
    new_state["batch_size"] = new_batch
    new_state["epoch_losses"] = losses
    meta = dict(meta)
    extra = dict(meta.get("extra") or {})
    extra["training_state"] = new_state
    meta["extra"] = extra

    out = dict(arrays)
    out["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    target = out_path or path
    write_archive(target, out)

    param_bytes = sum(int(v.nbytes) for k, v in arrays.items()
                      if k.startswith("param/"))
    slot_bytes = sum(int(v.nbytes) for k, v in arrays.items()
                     if k.startswith(("adam_m/", "adam_v/", "sgd_v/")))
    return ReshardReport(
        path=str(target), source_path=str(path),
        old_world=old_world, new_world=new_world,
        old_batch=old_batch, new_batch=new_batch,
        global_batch=global_batch,
        epoch=int(state.get("epoch", 0)), step=step, midepoch=midepoch,
        shuffle=shuffle, strategy=str(state.get("strategy", "")),
        param_bytes=param_bytes, slot_bytes=slot_bytes,
        seconds=time.perf_counter() - t0)
