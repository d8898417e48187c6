"""The ``BatchSource`` protocol: the loader interface trainers consume.

:class:`~repro.training.trainer.Trainer` and
:class:`~repro.training.ddp.DDPTrainer` historically duck-typed their
loaders; this module formalizes the contract so alternative sources
(sharded loaders, prefetching wrappers, remote partitions) can be written
against an explicit interface and validated at construction time instead
of failing mid-epoch.
"""

from __future__ import annotations

from typing import Iterator, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class BatchSource(Protocol):
    """Anything that can serve ``[batch, horizon, nodes, features]`` pairs.

    Implementations must keep :meth:`__len__` and :meth:`batches` in
    agreement: ``len(source)`` is exactly the number of full batches one
    default iteration yields.
    """

    batch_size: int

    @property
    def num_snapshots(self) -> int:
        """Total snapshots in this source's split."""
        ...

    def __len__(self) -> int:
        """Number of full batches a default iteration yields."""
        ...

    def batches(self, order: np.ndarray | None = None
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(x, y)`` batches, optionally in a sampler-given order."""
        ...

    def batch_at(self, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Assemble one batch for split-local snapshot indices ``sel``."""
        ...


_REQUIRED_ATTRS = ("batch_at", "batches", "num_snapshots", "batch_size")


def ensure_batch_source(obj: object, role: str = "loader") -> object:
    """Validate that ``obj`` satisfies :class:`BatchSource`.

    Returns ``obj`` unchanged; raises :class:`TypeError` naming the missing
    attributes otherwise.  Used by the trainers so a wrong loader object
    fails at construction with a readable message.
    """
    missing = [a for a in _REQUIRED_ATTRS if not hasattr(obj, a)]
    if missing:
        raise TypeError(
            f"{role} {type(obj).__name__!r} does not satisfy BatchSource: "
            f"missing {missing}")
    return obj
