"""Single-device training loop with history and timing.

Used for the single-GPU experiments (Tables 3/4/6, Figure 5): real numpy
training on (scaled) data.  The loss is computed on standardized values;
validation/test metrics are reported in original signal units by inverting
the scaler on the primary channel, as the DCRNN reference does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.batching.protocols import BatchSource, ensure_batch_source
from repro.batching.samplers import Sampler, GlobalShuffleSampler
from repro.models.base import STModel
from repro.models.dcrnn import DCRNN
from repro.nn.module import assert_inference_mode
from repro.optim.losses import l1_loss
from repro.optim.optimizers import Optimizer
from repro.preprocessing.scaler import StandardScaler
from repro.training.metrics import masked_abs_error
from repro.training.step import clip_and_step


@dataclass
class EpochRecord:
    """One epoch's outcomes."""

    epoch: int
    train_loss: float
    val_mae: float
    lr: float
    seconds: float


class Trainer:
    """Trains an :class:`~repro.models.base.STModel` on batch loaders.

    Parameters
    ----------
    model, optimizer: the usual pair; gradient clipping at ``clip_norm``.
    train_loader / val_loader: :class:`~repro.batching.protocols.BatchSource`
        implementations (either loader class works); validated here.
    scaler: inverse-transforms predictions for original-unit metrics.
    loss_fn: Tensor loss on standardized values (default L1).
    sampler: training-order sampler; defaults to global shuffling.
    """

    def __init__(self, model: STModel, optimizer: Optimizer,
                 train_loader: BatchSource,
                 val_loader: BatchSource | None = None, *,
                 scaler: StandardScaler | None = None,
                 loss_fn: Callable = l1_loss, clip_norm: float = 5.0,
                 sampler: Sampler | None = None, seed: int | str = 0):
        self.model = model
        self.optimizer = optimizer
        self.train_loader = ensure_batch_source(train_loader, "train_loader")
        self.val_loader = (None if val_loader is None
                           else ensure_batch_source(val_loader, "val_loader"))
        self.scaler = scaler
        self.loss_fn = loss_fn
        self.clip_norm = clip_norm
        self.sampler = sampler or GlobalShuffleSampler(
            train_loader.num_snapshots, train_loader.batch_size,
            world_size=1, seed=seed)
        self.history: list[EpochRecord] = []

    # ------------------------------------------------------------------
    def train_step(self, x: np.ndarray, y: np.ndarray) -> float:
        """One optimizer step; returns the scalar loss."""
        xt = Tensor(x)
        target = y[..., :1]
        if isinstance(self.model, DCRNN):
            pred = self.model(xt, targets=y)  # enables scheduled sampling
        else:
            pred = self.model(xt)
        loss = self.loss_fn(pred, target.astype(np.float32))
        self.optimizer.zero_grad()
        loss.backward()
        clip_and_step(self.optimizer, self.clip_norm)
        return float(loss.item())

    def train_epoch(self, epoch: int) -> float:
        """Train over one epoch plan; returns the mean batch loss."""
        self.model.train()
        plan = self.sampler.epoch_plan(epoch)[0]
        losses = []
        for sel in plan:
            if len(sel) < self.train_loader.batch_size:
                continue
            x, y = self.train_loader.batch_at(sel)
            losses.append(self.train_step(x, y))
        return float(np.mean(losses)) if losses else float("nan")

    # ------------------------------------------------------------------
    def evaluate(self, loader=None, max_batches: int | None = None) -> float:
        """Masked MAE on original units over a loader's snapshots.

        Batches are weighted by their *unmasked* entry count, so the result
        equals the masked MAE over the concatenated snapshots even when the
        missing-data fraction varies across batches.
        """
        loader = loader or self.val_loader
        if loader is None:
            raise ValueError("no evaluation loader provided")
        self.model.eval()
        total_abs, total_count = 0.0, 0
        with no_grad():
            assert_inference_mode(self.model)
            for i, (x, y) in enumerate(loader.batches()):
                if max_batches is not None and i >= max_batches:
                    break
                pred = self.model(Tensor(x)).data[..., 0]
                truth = y[..., 0]
                if self.scaler is not None:
                    pred = self.scaler.inverse_transform_channel(pred, 0)
                    truth = self.scaler.inverse_transform_channel(truth, 0)
                abs_sum, count = masked_abs_error(pred, truth)
                total_abs += abs_sum
                total_count += count
        if total_count == 0:
            return float("nan")
        return total_abs / total_count

    # ------------------------------------------------------------------
    def fit(self, epochs: int, *, scheduler=None, verbose: bool = False,
            patience: int | None = None,
            checkpoint_path: str | None = None,
            checkpoint_every: int = 1) -> list[EpochRecord]:
        """Train for ``epochs`` epochs, recording loss/val-MAE history.

        Parameters
        ----------
        patience: early stopping — end training after this many epochs
            without a new best validation MAE (the DCRNN reference trains
            with patience 50).  Requires a validation loader.
        checkpoint_path / checkpoint_every: write a resumable checkpoint
            every N epochs; on a new validation best, also write
            ``<path>.best``.
        """
        if patience is not None and self.val_loader is None:
            raise ValueError("early stopping needs a validation loader")
        best = float("inf")
        since_best = 0
        start = len(self.history)
        for epoch in range(start, start + epochs):
            t0 = time.perf_counter()
            train_loss = self.train_epoch(epoch)
            val_mae = self.evaluate() if self.val_loader is not None else float("nan")
            dt = time.perf_counter() - t0
            self.history.append(EpochRecord(epoch, train_loss, val_mae,
                                            self.optimizer.lr, dt))
            if scheduler is not None:
                scheduler.step()
            if verbose:
                print(f"epoch {epoch:3d}  loss {train_loss:.4f}  "
                      f"val MAE {val_mae:.4f}  ({dt:.2f}s)")
            improved = np.isfinite(val_mae) and val_mae < best
            if improved:
                best = val_mae
                since_best = 0
            else:
                since_best += 1
            if checkpoint_path is not None:
                from repro.training.checkpoint import save_checkpoint
                if (epoch - start + 1) % checkpoint_every == 0:
                    save_checkpoint(checkpoint_path, self.model,
                                    self.optimizer, epoch=epoch)
                if improved:
                    save_checkpoint(checkpoint_path + ".best", self.model,
                                    self.optimizer, epoch=epoch,
                                    extra={"val_mae": float(val_mae)})
            if patience is not None and since_best >= patience:
                if verbose:
                    print(f"early stop at epoch {epoch} "
                          f"(no improvement for {since_best} epochs)")
                break
        return self.history

    def best_val_mae(self) -> float:
        vals = [r.val_mae for r in self.history if np.isfinite(r.val_mae)]
        return min(vals) if vals else float("nan")
