"""Low-overhead CSR kernels for the training hot path.

The graph supports used by every ST-GNN layer are *constants*: the same
sparse matrix multiplies thousands of activations per epoch.  Going
through ``scipy.sparse.__matmul__`` for each of those pays for format
checks, index-dtype negotiation and a fresh ``A.T.tocsr()`` conversion on
every backward — which profiling shows dominates small-scale training.

This module keeps a bounded cache of *prepared* supports: the CSR arrays
cast to the compute dtype plus the precomputed CSR transpose.  The actual
product lives in :mod:`repro.kernels`, which runs scipy's C kernel
(``csr_matvecs``) directly into a caller-provided output buffer.

The cache is bounded on two axes: at most ``_PREPARED_MAX`` distinct
support matrices (FIFO, like the api-layer caches), and at most
``_PREPARED_DTYPES_MAX`` dtypes per matrix so per-support entries cannot
grow without bound when a caller alternates compute dtypes.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse as sp

from repro import kernels


class PreparedCSR:
    """One support matrix readied for repeated products in one dtype."""

    __slots__ = ("shape", "indptr", "indices", "data", "csr", "_transpose")

    def __init__(self, matrix: sp.spmatrix, dtype: np.dtype):
        csr = matrix.tocsr().astype(dtype, copy=True)  # sort a copy
        csr.sum_duplicates()
        self.csr = csr
        self.shape = csr.shape
        self.indptr = csr.indptr
        self.indices = csr.indices
        self.data = csr.data
        self._transpose: PreparedCSR | None = None

    @property
    def T(self) -> "PreparedCSR":
        """Prepared transpose (computed once, cached)."""
        if self._transpose is None:
            t = PreparedCSR(self.csr.T.tocsr(), self.data.dtype)
            t._transpose = self
            self._transpose = t
        return self._transpose

    def matmul_out(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out[:] = A @ x`` for C-contiguous 2-D ``x``; no allocation.

        ``x`` is ``[n, v]``, ``out`` is ``[m, v]``; both must match the
        prepared dtype (the kernel is monomorphic).
        """
        return kernels.active_backend().csr_matmul_out(self, x, out)

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` into a fresh array (for outputs that must be owned)."""
        out = np.empty((self.shape[0], x.shape[1]), dtype=self.data.dtype)
        return self.matmul_out(x, out)


#: Prepared-support memo.  Keyed by id(matrix) -> (matrix, {dtype: prepared});
#: each value keeps a strong reference to its source matrix so an id cannot
#: be recycled while its entry is alive.
_PREPARED: dict[int, tuple[sp.spmatrix, dict[str, PreparedCSR]]] = {}
_PREPARED_MAX = 64        # distinct support matrices (FIFO)
_PREPARED_DTYPES_MAX = 2  # dtypes kept per matrix (f32 + f64 in practice)


def prepared_csr(matrix: sp.spmatrix, dtype) -> PreparedCSR:
    """Cached :class:`PreparedCSR` for ``matrix`` in ``dtype``."""
    dtype = np.dtype(dtype)
    entry = _PREPARED.get(id(matrix))
    if entry is not None and entry[0] is matrix:
        by_dtype = entry[1]
        prepared = by_dtype.get(dtype.str)
        if prepared is not None:
            return prepared
    else:
        if len(_PREPARED) >= _PREPARED_MAX:
            _PREPARED.pop(next(iter(_PREPARED)))
        by_dtype = {}
        _PREPARED[id(matrix)] = (matrix, by_dtype)
    while len(by_dtype) >= _PREPARED_DTYPES_MAX:
        by_dtype.pop(next(iter(by_dtype)))
    prepared = PreparedCSR(matrix, dtype)
    by_dtype[dtype.str] = prepared
    return prepared


_STACKED: dict[tuple, tuple] = {}  # (ids, dtype) -> (supports, operators)
_STACKED_LOCK = threading.Lock()  # rank threads that miss at once build once


def stacked_csr(supports, dtype: np.dtype) -> tuple[PreparedCSR, PreparedCSR]:
    """Cached ``(vstack(P_s), block_diag(P_s))``: one product per diffusion
    hop, each row keeping its entries in the per-support (canonical) order."""
    key = (tuple(map(id, supports)), dtype.str)
    with _STACKED_LOCK:
        entry = _STACKED.get(key)  # holds the supports: their ids stay theirs
        if entry is None:
            parts = [PreparedCSR(s, dtype).csr for s in supports]
            if len(_STACKED) >= _PREPARED_MAX:
                _STACKED.pop(next(iter(_STACKED)))
            entry = _STACKED[key] = (tuple(supports), (
                PreparedCSR(sp.vstack(parts, format="csr"), dtype),
                PreparedCSR(sp.block_diag(parts, format="csr"), dtype)))
    return entry[1]


def clear_prepared_cache() -> None:
    """Drop all cached prepared supports (tests / memory pressure)."""
    _PREPARED.clear()
    _STACKED.clear()
