"""The NumPy/SciPy kernels: the reference numerics of the hot path.

The CSR product and the diffusion hop/backward chains run scipy's
``csr_matvecs`` C kernel into caller buffers with rotating ping/pong hop
scratch; every fixed-seed curve in the test suite is pinned to their
accumulation order.

``gru_gates_fwd`` is the one GRU kernel here.  No model calls it: the
batch-major cells compose Tensor ops (``nn.rnn.gru_cell_step``) and
``DCGRUCell.step`` runs its elementwise tail as in-place NumPy.  It stays
because the end-to-end benchmark's per-layer probe ``kernels.gru_gates_ms``
times it at each workload's shapes.
"""

from __future__ import annotations

import numpy as np

try:  # scipy's C kernel: csr_matvecs(M, N, n_vecs, indptr, indices, data, x, y)
    from scipy.sparse import _sparsetools as _st
    _HAVE_CSR_MATVECS = hasattr(_st, "csr_matvecs")
except ImportError:  # pragma: no cover - depends on scipy build
    _st = None
    _HAVE_CSR_MATVECS = False


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free sigmoid, identical to ``Tensor.sigmoid`` numerics."""
    t = np.exp(-np.abs(x))
    denom = t + 1.0
    return np.where(x >= 0, 1.0 / denom, t / denom)


class NumpyBackend:
    """Pure NumPy/SciPy kernels; the bit-exact reference."""

    name = "numpy"

    # -- sparse ---------------------------------------------------------
    def csr_matmul_out(self, prep, x: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
        """``out[:] = A @ x`` for a :class:`PreparedCSR`; no allocation."""
        if _HAVE_CSR_MATVECS and x.flags.c_contiguous and \
                out.flags.c_contiguous and x.dtype == prep.data.dtype \
                and out.dtype == prep.data.dtype:
            out[...] = 0
            _st.csr_matvecs(prep.shape[0], prep.shape[1], x.shape[1],
                            prep.indptr, prep.indices, prep.data,
                            x.reshape(-1), out.reshape(-1))
            return out
        np.copyto(out, prep.csr @ x, casting="unsafe")
        return out

    # -- diffusion conv -------------------------------------------------
    def diffusion_hops(self, prep, x0_flat: np.ndarray, cat: np.ndarray,
                       col0: int, f: int, k: int, ping: np.ndarray,
                       pong: np.ndarray) -> None:
        """Write hops ``P^1..P^k x`` into ``cat[:, :, col0:col0+k*f]``.

        ``x0_flat`` is the node-major hop-0 input flattened to
        ``[n, b*f]``; ``ping``/``pong`` are rotating ``[n, b, f]``
        scratch buffers that persist across steps.
        """
        n = cat.shape[0]
        prev = x0_flat
        hop_bufs = (ping, pong)
        col = col0
        for j in range(k):
            nxt = hop_bufs[j % 2]
            self.csr_matmul_out(prep, prev, nxt.reshape(n, -1))
            cat[:, :, col: col + f] = nxt
            col += f
            prev = nxt.reshape(n, -1)

    def diffusion_backward(self, prep_t, gcat: np.ndarray, col0: int, f: int,
                           k: int, gx: np.ndarray, ping: np.ndarray,
                           pong: np.ndarray) -> None:
        """Chain one support's hop gradients back into ``gx`` (+=).

        ``prep_t`` is the prepared transpose ``P^T``; the recurrence is
        ``acc_k = g_k``, ``acc_j = P^T acc_{j+1} + g_j``, and finally
        ``gx += P^T acc_1``.
        """
        n = gcat.shape[0]
        bufs = (ping, pong)
        acc = bufs[0]
        np.copyto(acc, gcat[:, :, col0 + (k - 1) * f: col0 + k * f])
        for j in range(k - 1, 0, -1):
            nxt = bufs[1] if acc is bufs[0] else bufs[0]
            self.csr_matmul_out(prep_t, acc.reshape(n, -1),
                                nxt.reshape(n, -1))
            nxt += gcat[:, :, col0 + (j - 1) * f: col0 + j * f]
            acc = nxt
        nxt = bufs[1] if acc is bufs[0] else bufs[0]
        self.csr_matmul_out(prep_t, acc.reshape(n, -1), nxt.reshape(n, -1))
        gx += nxt

    # -- GRU gates (benchmark probe) ----------------------------------
    def gru_gates_fwd(self, pre: np.ndarray, h: np.ndarray, s: np.ndarray,
                      rh: np.ndarray) -> None:
        """``s = sigmoid(pre)`` (both gates), ``rh = s[..., :H] * h``."""
        hidden = h.shape[-1]
        s[...] = stable_sigmoid(pre)
        np.multiply(s[..., :hidden], h, out=rh)
