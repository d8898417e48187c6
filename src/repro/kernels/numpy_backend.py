"""The always-available NumPy/SciPy backend — the reference numerics.

The CSR product and the diffusion hop/backward chains here are the exact
code the autograd layer ran before ``repro.kernels`` existed (scipy's
``csr_matvecs`` C kernel into caller buffers, rotating ping/pong hop
scratch), moved verbatim so the default path stays byte-for-byte
identical across the refactor.  The fused-GRU methods are vectorised
references: ``gru_cell_step`` routes through them only on backends that
set ``fused_gru`` (this one does not — batch-major cells keep their
original op composition), and ``DCGRUCell.step`` runs its elementwise
tail as in-place NumPy on every backend (each of these kernels writes a
full-width ``dpre``, so sharing them would add two half-zero passes and a
sum per step).  They define the semantics the compiled backend must match
and give the parity tests a target that runs everywhere.
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
    """Pure NumPy/SciPy kernels; the bit-exact default everywhere."""

    name = "numpy"
    compiled = False
    #: The GRU cells keep the seed op composition on this backend.
    fused_gru = False

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

    # -- fused GRU ------------------------------------------------------
    def gru_gates_fwd(self, pre: np.ndarray, h: np.ndarray, s: np.ndarray,
                      rh: np.ndarray) -> None:
        """``s = sigmoid(pre)`` (both gates), ``rh = s[..., :H] * h``."""
        hidden = h.shape[-1]
        s[...] = stable_sigmoid(pre)
        np.multiply(s[..., :hidden], h, out=rh)

    def gru_gates_bwd_rh(self, g: np.ndarray, s: np.ndarray, h: np.ndarray,
                         dpre: np.ndarray, dh: np.ndarray) -> None:
        """Backward of the ``rh`` output w.r.t. ``pre`` (reset half) and ``h``."""
        hidden = h.shape[-1]
        r = s[..., :hidden]
        dpre[..., :hidden] = g * h * r * (1.0 - r)
        dpre[..., hidden:] = 0.0
        np.multiply(g, r, out=dh)

    def gru_gates_bwd_u(self, g: np.ndarray, s: np.ndarray,
                        dpre: np.ndarray) -> None:
        """Backward of the ``u`` output w.r.t. ``pre`` (update half)."""
        hidden = g.shape[-1]
        u = s[..., hidden:]
        dpre[..., :hidden] = 0.0
        dpre[..., hidden:] = g * u * (1.0 - u)

    def gru_blend_fwd(self, u: np.ndarray, h: np.ndarray,
                      cand_pre: np.ndarray, c: np.ndarray,
                      out: np.ndarray) -> None:
        """``c = tanh(cand_pre)``; ``out = u*h + (1-u)*c`` in one pass."""
        np.tanh(cand_pre, out=c)
        np.multiply(u, h, out=out)
        out += (1.0 - u) * c

    def gru_blend_bwd(self, g: np.ndarray, u: np.ndarray, h: np.ndarray,
                      c: np.ndarray, du: np.ndarray, dh: np.ndarray,
                      dcpre: np.ndarray) -> None:
        """Gradients of the blend w.r.t. ``u``, ``h`` and ``cand_pre``."""
        np.subtract(h, c, out=du)
        du *= g
        np.multiply(g, u, out=dh)
        np.subtract(1.0, u, out=dcpre)
        dcpre *= g
        dcpre *= 1.0 - c * c
