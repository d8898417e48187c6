"""Shared per-step update logic for every trainer.

The "average grads → clip → optimizer apply" tail of a training step,
for :class:`~repro.training.trainer.Trainer` and
:class:`~repro.training.ddp.DDPTrainer`, with the exact historical
operation order preserved:

- :func:`clip_and_step` — ``clip_grad_norm`` (if enabled) then
  ``optimizer.step()``, the single-device tail.
- :func:`average_and_apply` — bucketed mean all-reduce of per-rank
  gradients followed by unpack + step, the distributed tail (each rank
  clips its own gradient before packing).

Op order is seed-identical to the pre-refactor code: gradients are
reduced elementwise over ranks in rank order, written back into the
optimizer's parameter gradients, and applied by the unchanged in-place
optimizers — a fixed-seed curve test pins this.
"""

from __future__ import annotations

import numpy as np

from repro.optim.optimizers import Optimizer, clip_grad_norm
from repro.runtime.buckets import GradientBucketer
from repro.runtime.process_group import ProcessGroup


def clip_and_step(optimizer: Optimizer, clip_norm: float | None) -> None:
    """Clip the global gradient norm (when enabled), then step.

    The shared tail of a local update; a falsy ``clip_norm`` (``None`` or
    ``0``) skips clipping, matching each trainer's historical default.
    """
    if clip_norm:
        clip_grad_norm(optimizer.params, clip_norm)
    optimizer.step()


def average_and_apply(pg: ProcessGroup, bucketer: GradientBucketer,
                      rank_buffers: list[list[np.ndarray]],
                      optimizer: Optimizer) -> None:
    """Mean-all-reduce packed gradients, then step ``optimizer`` on them.

    ``rank_buffers[r]`` is rank ``r``'s packed bucket set (see
    :meth:`GradientBucketer.pack`).  One ``"gradient"`` all-reduce is
    issued per bucket; every rank's reduced copy holds the same bits, so
    the optimizer consumes rank 0's.
    """
    if len(rank_buffers) != pg.world_size:
        raise ValueError(f"expected bucket buffers for {pg.world_size} "
                         f"ranks, got {len(rank_buffers)}")
    reduced = [pg.allreduce([bufs[b] for bufs in rank_buffers],
                            op="mean", category="gradient")[0]
               for b in range(bucketer.num_buckets)]
    bucketer.unpack(reduced, optimizer.params)
    optimizer.step()
