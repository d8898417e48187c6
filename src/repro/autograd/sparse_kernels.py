"""Low-overhead CSR kernels for the training hot path.

The graph supports used by every ST-GNN layer are *constants*: the same
sparse matrix multiplies thousands of activations per epoch.  Going
through ``scipy.sparse.__matmul__`` for each of those pays for format
checks, index-dtype negotiation and a fresh ``A.T.tocsr()`` conversion on
every backward — which profiling shows dominates small-scale training.

A :class:`PreparedCSR` is one support readied for that: the CSR arrays
cast to the compute dtype and put in canonical order, plus the CSR
transpose computed once.  :func:`stacked_csr` keeps a bounded FIFO cache
(``_STACKED_MAX`` support sets, like the api-layer caches) of the stacked
operators every diffusion/graph conv over a support set shares.  The
actual product lives in :mod:`repro.kernels`, which runs scipy's C kernel
(``csr_matvecs``) directly into a caller-provided output buffer.
"""

from __future__ import annotations

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


_STACKED_MAX = 64  # distinct support sets (FIFO)
_STACKED: dict[tuple, tuple] = {}  # (ids, dtype) -> (supports, operators)


def stacked_csr(supports, dtype: np.dtype) -> tuple[PreparedCSR, PreparedCSR]:
    """Cached ``(vstack(P_s), block_diag(P_s))``: one product per diffusion
    hop, each row keeping its entries in the per-support (canonical) order."""
    key = (tuple(map(id, supports)), dtype.str)
    entry = _STACKED.get(key)  # holds the supports: their ids stay theirs
    if entry is None:
        parts = [PreparedCSR(s, dtype).csr for s in supports]
        if len(_STACKED) >= _STACKED_MAX:
            _STACKED.pop(next(iter(_STACKED)))
        entry = _STACKED[key] = (tuple(supports), (
            PreparedCSR(sp.vstack(parts, format="csr"), dtype),
            PreparedCSR(sp.block_diag(parts, format="csr"), dtype)))
    return entry[1]


def clear_prepared_cache() -> None:
    """Drop all cached stacked operators (tests / memory pressure)."""
    _STACKED.clear()
