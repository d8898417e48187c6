"""Shared per-step update logic for every trainer.

The "average grads → clip → optimizer apply" tail of a training step,
for :class:`~repro.training.trainer.Trainer` and
:class:`~repro.training.ddp.DDPTrainer`, with the exact historical
operation order preserved:

- :func:`clip_and_step` — ``clip_grad_norm`` (if enabled) then
  ``optimizer.step()``, the single-device tail.
- :func:`average_and_apply` — one mean all-reduce of the ranks' flat
  gradient buffers, copied into ``optimizer.grad``, then one step (each
  rank clips its own gradient in its buffer first).

Op order is seed-identical to the pre-refactor code: gradients are
reduced elementwise over ranks in rank order and applied by the
unchanged in-place optimizer arithmetic — a fixed-seed curve test pins
this.
"""

from __future__ import annotations

import numpy as np

from repro.optim.optimizers import Optimizer, clip_grad_norm
from repro.runtime.process_group import ProcessGroup


def clip_and_step(optimizer: Optimizer, clip_norm: float | None) -> None:
    """Clip the global gradient norm (when enabled), then step.

    The shared tail of a local update; a falsy ``clip_norm`` (``None`` or
    ``0``) skips clipping, matching each trainer's historical default.
    """
    if clip_norm:
        clip_grad_norm(optimizer.params, clip_norm)
    optimizer.step()


def average_and_apply(pg: ProcessGroup, rank_grads: list[np.ndarray],
                      optimizer: Optimizer) -> None:
    """Mean-all-reduce the ranks' gradients, then step ``optimizer`` on them.

    ``rank_grads[r]`` is rank ``r``'s flat gradient buffer, laid out like
    ``optimizer.grad`` (see :meth:`Optimizer.bind`).  One ``"gradient"``
    all-reduce is issued; every rank's reduced copy holds the same bits,
    so the optimizer consumes rank 0's.
    """
    reduced = pg.allreduce(rank_grads, op="mean", category="gradient")[0]
    np.copyto(optimizer.grad, reduced)
    optimizer.step()
