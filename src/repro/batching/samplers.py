"""Shuffling strategies for (distributed) batch sampling.

The paper distinguishes three regimes:

- **global shuffling** (§4.2): every epoch the *entire* dataset is permuted
  and re-partitioned across workers.  Baseline DDP pays communication for
  this; distributed-index-batching gets it free because every worker holds
  the whole dataset locally.
- **local shuffling**: each worker's partition is fixed; only the order
  within a partition changes.  Known to hurt convergence (Meng et al.).
- **batch-level (local) shuffling** (§5.4): partitions *and* batch
  membership are fixed; only the order of batches is shuffled.  Used by
  generalized-distributed-index-batching for memory locality; Table 5 shows
  it matches global shuffling's accuracy.

A sampler's ``epoch_plan(epoch)`` returns, per rank, the list of batches
(arrays of dataset-level snapshot indices) for that epoch.  Plans are
deterministic in (seed, epoch).
"""

from __future__ import annotations

import numpy as np

from repro.utils.seeding import new_rng


def partition_contiguous(n: int, world_size: int) -> list[np.ndarray]:
    """Split ``range(n)`` into ``world_size`` near-equal contiguous chunks."""
    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    bounds = np.linspace(0, n, world_size + 1).astype(np.int64)
    return [np.arange(bounds[r], bounds[r + 1]) for r in range(world_size)]


def _to_batches(indices: np.ndarray, batch_size: int,
                drop_last: bool) -> list[np.ndarray]:
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_full = len(indices) // batch_size
    batches = [indices[i * batch_size:(i + 1) * batch_size] for i in range(n_full)]
    rem = indices[n_full * batch_size:]
    if len(rem) and not drop_last:
        batches.append(rem)
    return batches


class Sampler:
    """Base sampler over ``n`` snapshots for ``world_size`` ranks."""

    def __init__(self, n: int, batch_size: int, world_size: int = 1,
                 *, seed: int | str = 0, drop_last: bool = True):
        if n < 1:
            raise ValueError("need at least one snapshot")
        self.n = int(n)
        self.batch_size = int(batch_size)
        self.world_size = int(world_size)
        self.seed = seed
        self.drop_last = drop_last

    def epoch_plan(self, epoch: int) -> list[list[np.ndarray]]:
        """Per-rank lists of batch index arrays for ``epoch``."""
        raise NotImplementedError

    def steps_per_epoch(self) -> int:
        """Number of synchronized global steps (min across ranks)."""
        plan = self.epoch_plan(0)
        return min(len(b) for b in plan)


class GlobalShuffleSampler(Sampler):
    """Permute everything each epoch, then deal out to ranks round-robin."""

    def epoch_plan(self, epoch: int) -> list[list[np.ndarray]]:
        rng = new_rng("sampler", "global", self.seed, epoch)
        perm = rng.permutation(self.n)
        per_rank = [perm[r::self.world_size] for r in range(self.world_size)]
        return [_to_batches(p, self.batch_size, self.drop_last) for p in per_rank]


class LocalShuffleSampler(Sampler):
    """Fixed contiguous partitions; shuffle within each partition per epoch."""

    def epoch_plan(self, epoch: int) -> list[list[np.ndarray]]:
        parts = partition_contiguous(self.n, self.world_size)
        out = []
        for r, part in enumerate(parts):
            rng = new_rng("sampler", "local", self.seed, epoch, r)
            out.append(_to_batches(rng.permutation(part), self.batch_size,
                                   self.drop_last))
        return out


class BatchShuffleSampler(Sampler):
    """Fixed partitions and fixed batch membership; shuffle batch order only.

    Batch contents are contiguous runs of the partition, which is what
    gives generalized-distributed-index-batching its memory locality.
    """

    def epoch_plan(self, epoch: int) -> list[list[np.ndarray]]:
        parts = partition_contiguous(self.n, self.world_size)
        out = []
        for r, part in enumerate(parts):
            batches = _to_batches(part, self.batch_size, self.drop_last)
            rng = new_rng("sampler", "batch", self.seed, epoch, r)
            order = rng.permutation(len(batches))
            out.append([batches[i] for i in order])
        return out
