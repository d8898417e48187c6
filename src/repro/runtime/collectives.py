"""The gradient all-reduce, implemented once against :class:`Transport`.

Call convention: arguments are *lists indexed by rank* (the in-process
equivalent of each rank passing its local buffer), and every collective
returns per-rank results as independent copies.  Distributed
index-batching holds the whole dataset on every rank, so the all-reduce
is the only collective a training step issues (a resume charges one
parameter broadcast straight to ``Transport.collective``).  Two
invariants hold for every transport:

- **Dtype-preserving** — the result dtype is the input dtype, never a
  promoted accumulator dtype.
- **Bitwise-deterministic in rank order** — reductions accumulate
  contributions in rank order ``0, 1, ..., p-1`` regardless of transport,
  thread scheduling, or buffer layout, so a fixed-seed training run
  produces the same bits on :class:`~repro.runtime.transport.SimTransport`
  and :class:`~repro.runtime.transport.ThreadTransport`.

Cost accounting is delegated to ``transport.collective(...)`` — the
simulated fabric prices the ring algorithm (``2 (p-1)/p · n`` per rank),
the thread fabric records measured wall seconds.
"""

from __future__ import annotations

import time

import numpy as np

from repro.runtime.transport import Transport
from repro.utils.errors import CommunicatorError

REDUCE_OPS = ("mean", "sum")


def _check_world_list(transport: Transport, values) -> None:
    if len(values) != transport.world_size:
        raise CommunicatorError(
            f"expected one value per rank ({transport.world_size}), "
            f"got {len(values)}")


def _reduce(arrays: list[np.ndarray], op: str) -> np.ndarray:
    """Element-wise reduction over ranks, accumulated in rank order."""
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise CommunicatorError(f"reduce shape mismatch: {shapes}")
    if op not in REDUCE_OPS:
        raise CommunicatorError(f"unsupported op {op!r}")
    stacked = np.stack(arrays, axis=0)
    result = stacked.mean(axis=0) if op == "mean" else stacked.sum(axis=0)
    return result.astype(arrays[0].dtype, copy=False)


def all_reduce(transport: Transport, arrays: list[np.ndarray],
               op: str = "mean", category: str = "gradient"
               ) -> list[np.ndarray]:
    """Element-wise reduce across ranks; every rank gets the result."""
    _check_world_list(transport, arrays)
    t0 = time.perf_counter()
    result = _reduce(arrays, op)
    out = [result.copy() for _ in range(transport.world_size)]
    transport.collective("allreduce", arrays[0].nbytes, category,
                         measured_seconds=time.perf_counter() - t0)
    return out
