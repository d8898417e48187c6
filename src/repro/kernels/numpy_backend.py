"""The NumPy/SciPy kernels: the reference numerics of the hot path.

The CSR product and the diffusion hop/backward chains run scipy's
``csr_matvecs`` C kernel into caller buffers with rotating ping/pong hop
scratch, one product per hop for all stacked supports; every fixed-seed
curve is pinned to its row order (``test_kernels.py::TestCsrRowOrder``).

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


def _operands(prep, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Flat views of ``arrays`` for ``csr_matvecs``; checked once per call."""
    if not _HAVE_CSR_MATVECS or any(a.dtype != prep.data.dtype or
                                    not a.flags.c_contiguous for a in arrays):
        raise TypeError(f"need C-contiguous {prep.data.dtype} operands")
    return tuple(a.reshape(-1) for a in arrays)


def _product(prep, x: np.ndarray, y: np.ndarray, v: int) -> None:
    """``y = A @ x`` on flat views of ``[cols, v]`` / ``[rows, v]`` blocks."""
    y.fill(0)
    _st.csr_matvecs(prep.shape[0], prep.shape[1], v, prep.indptr,
                    prep.indices, prep.data, x, y)


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
            _product(prep, x.reshape(-1), out.reshape(-1), x.shape[1])
            return out
        np.copyto(out, prep.csr @ x, casting="unsafe")
        return out

    # -- diffusion conv -------------------------------------------------
    def diffusion_hops(self, first, nxt, x0: np.ndarray, cat: np.ndarray,
                       k: int, ping: np.ndarray, pong: np.ndarray) -> None:
        """Write hops ``P_s^1..P_s^k x0`` into ``cat[:, :, f:]``, by support.

        ``first``/``nxt`` come from ``stacked_csr``; ``ping``/``pong`` are
        rotating ``[S, n, b, f]`` scratch for node-major ``x0 [n, b, f]``.
        """
        n, b, f = x0.shape
        bufs = _operands(first, x0, ping, pong)
        hops = cat[:, :, f:].reshape(n, b, -1, k, f)
        prev, op = bufs[0], first
        for j in range(k):
            _product(op, prev, bufs[1 + j % 2], b * f)
            hops[:, :, :, j] = (ping, pong)[j % 2].transpose(1, 2, 0, 3)
            prev, op = bufs[1 + j % 2], nxt

    def diffusion_backward(self, nxt_t, gcat: np.ndarray, k: int,
                           gx: np.ndarray, ping: np.ndarray,
                           pong: np.ndarray) -> None:
        """Chain every support's hop gradients back into ``gx`` (+=).

        ``nxt_t = block_diag(P_s)^T``: ``acc_k = g_k``, ``acc_j = P^T acc_{j+1}
        + g_j``, then ``gx += P_s^T acc_1`` per support, in support order.
        """
        n, b, f = gx.shape
        flat = _operands(nxt_t, ping, pong)
        g = gcat[:, :, f:].reshape(n, b, -1, k, f).transpose(2, 3, 0, 1, 4)
        np.copyto(ping, g[:, k - 1])
        for j in range(k - 1, -1, -1):  # acc_{j+1} sits in buffer i
            i = (k - 1 - j) % 2
            _product(nxt_t, flat[i], flat[1 - i], b * f)
            out = (ping, pong)[1 - i]
            if j:
                out += g[:, j - 1]
        for part in out:
            gx += part

    # -- GRU gates (benchmark probe) ----------------------------------
    def gru_gates_fwd(self, pre: np.ndarray, h: np.ndarray, s: np.ndarray,
                      rh: np.ndarray) -> None:
        """``s = sigmoid(pre)`` (both gates), ``rh = s[..., :H] * h``."""
        hidden = h.shape[-1]
        s[...] = stable_sigmoid(pre)
        np.multiply(s[..., :hidden], h, out=rh)
