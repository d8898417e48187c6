"""Recyclable gradient buffers for the backward pass.

Every training step builds and tears down the same graph shapes, so the
gradient arrays freed when ``backward()`` releases interior nodes are
exactly the arrays the *next* step's backward will need.  :class:`ArrayPool`
keeps them on a per-``(shape, dtype)`` free list: ``backward`` returns
interior gradients here instead of dropping them to the allocator, and
``Tensor._accumulate`` draws its first-touch buffers from the pool.

Leaf tensors (parameters, inputs) never recycle their gradients — user
code may hold ``p.grad`` across steps — so pooling is invisible outside
the engine.  The pool is bounded per key and can be cleared at any time.
"""

from __future__ import annotations

import numpy as np

_MAX_PER_KEY = 64


class ArrayPool:
    """Free lists of NumPy arrays keyed by ``(shape, dtype)``."""

    def __init__(self, max_per_key: int = _MAX_PER_KEY):
        self.max_per_key = max_per_key
        self._store: dict[tuple, list[np.ndarray]] = {}

    def take(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray | None:
        """Pop a cached array of this shape/dtype, or None (contents stale)."""
        bucket = self._store.get((shape, np.dtype(dtype).str))
        return bucket.pop() if bucket else None

    def give(self, arr: np.ndarray) -> None:
        """Return an array the caller no longer references."""
        if not isinstance(arr, np.ndarray) or not arr.flags.owndata \
                or not arr.flags.c_contiguous:
            return
        key = (arr.shape, arr.dtype.str)
        bucket = self._store.setdefault(key, [])
        if len(bucket) < self.max_per_key:
            bucket.append(arr)

    def clear(self) -> None:
        self._store.clear()

    def nbytes(self) -> int:
        """Bytes currently parked in the pool (a resident-memory metric)."""
        return sum(a.nbytes for bucket in self._store.values() for a in bucket)

    def __len__(self) -> int:
        return sum(len(b) for b in self._store.values())


#: The engine-wide gradient pool used by ``Tensor.backward``.
GRAD_POOL = ArrayPool()
