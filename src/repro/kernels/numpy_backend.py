"""The NumPy/SciPy kernels: the reference numerics of the hot path.

The CSR product and the diffusion hop/backward chains run scipy's
``csr_matvecs`` C kernel into caller buffers (one hop-major buffer
forward, rotating ping/pong backward), one product per hop for all
stacked supports; every fixed-seed curve is pinned to its row order
(``test_kernels.py::TestCsrRowOrder``).
The chains are *bound*: operands are checked and flattened once per
bind, and the returned closure runs at every step of a recurrence.

Both chains take a structural ``identity`` choice: DCRNN's diffusion conv
carries ``x0`` itself as block 0 of the hop block, T-GCN's graph conv (one
support, one hop) does not.

``gru_gates_fwd`` is the one GRU kernel here.  No model calls it: DCRNN's
batch-major cells compose Tensor ops (``nn.rnn.gru_cell_step``) and
``DCGRUCell.sequence`` runs its elementwise tail as in-place NumPy.  It stays
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
    """Flat views of ``arrays`` for ``csr_matvecs``; checked once per bind."""
    if not _HAVE_CSR_MATVECS or any(a.dtype != prep.data.dtype or
                                    not a.flags.c_contiguous for a in arrays):
        raise TypeError(f"need C-contiguous {prep.data.dtype} operands")
    return tuple(a.reshape(-1) for a in arrays)


def _args(prep, v: int) -> tuple:
    """``csr_matvecs``'s leading arguments for ``v`` vectors of ``prep``."""
    return (prep.shape[0], prep.shape[1], v, prep.indptr, prep.indices,
            prep.data)


def _product(prep, x: np.ndarray, y: np.ndarray, v: int) -> None:
    """``y = A @ x`` on flat views of ``[cols, v]`` / ``[rows, v]`` blocks."""
    y.fill(0)
    _st.csr_matvecs(*_args(prep, v), x, y)


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
    def bind_hops(self, first, nxt, x0: np.ndarray, hops: np.ndarray,
                  k: int, identity: bool = True):
        """``run(cat)``: ``x0`` into ``cat[:, :f]`` when ``identity``, then
        the hops ``P_s^1..P_s^k x0`` into the rest of the flat hop block
        ``cat`` (``[n*b, m*f]``), by support.

        ``first``/``nxt`` come from ``stacked_csr``; ``hops`` is hop-major
        ``[>= k, S, n, b, f]`` scratch for node-major ``x0 [n, b, f]``: hop
        ``j`` lands in ``hops[j - 1]``, all ``k`` cleared by one ``fill``
        and moved into ``cat`` by one transposing copy.  The two targets
        in ``cat`` are sliced once per new ``cat``.
        """
        n, b, f = x0.shape
        buf = hops[:k]
        seq = _operands(first, x0, *buf)                  # x0, hops
        chain = [(_args(nxt if j else first, b * f), seq[j], seq[j + 1])
                 for j in range(k)]
        ident, view = x0.reshape(n * b, f), buf.transpose(2, 3, 1, 0, 4)
        shape, lead = (n, b, hops.shape[1], k, f), f if identity else 0
        last = [None, None, None]       # the last cat and its two targets

        def run(cat: np.ndarray) -> None:
            if cat is not last[0]:
                last[:] = cat, cat[:, :f], cat[:, lead:].reshape(shape)
            if identity:
                np.copyto(last[1], ident)
            buf.fill(0)
            for args, src, dst in chain:
                _st.csr_matvecs(*args, src, dst)
            np.copyto(last[2], view)

        return run

    def bind_hops_backward(self, nxt_t, gcat: np.ndarray, gx: np.ndarray,
                           ping: np.ndarray, pong: np.ndarray, k: int,
                           identity: bool = True):
        """``chain()``: ``gx`` = every support's hop gradients chained
        back, added to the identity hop's ``gcat[:, :, :f]`` when
        ``identity``; bound as above.

        ``nxt_t = block_diag(P_s)^T``: ``acc_k = g_k``, ``acc_j = P^T acc_{j+1}
        + g_j``, then ``gx += P_s^T acc_1`` per support, in support order.
        """
        n, b, f = gx.shape
        ident, lead = gcat[:, :, :f], f if identity else 0
        if not k:
            return lambda: np.copyto(gx, ident)
        flat = _operands(nxt_t, ping, pong)
        args = _args(nxt_t, b * f)
        g = gcat[:, :, lead:].reshape(n, b, len(ping), k, f).transpose(
            2, 3, 0, 1, 4)
        steps = []
        for j in range(k - 1, -1, -1):  # acc_{j+1} sits in buffer i
            i = (k - 1 - j) % 2
            steps.append((flat[i], flat[1 - i], (ping, pong)[1 - i],
                          g[:, j - 1] if j else None))
        head, parts = g[:, k - 1], list(steps[-1][2])
        first, rest = (ident, parts) if identity else (parts[0], parts[1:])

        def chain() -> None:
            np.copyto(ping, head)
            for src, dst, acc, g_j in steps:
                dst.fill(0)
                _st.csr_matvecs(*args, src, dst)
                if g_j is not None:
                    acc += g_j
            np.copyto(gx, first)
            for part in rest:
                np.add(gx, part, out=gx)

        return chain

    # -- GRU gates (benchmark probe) ----------------------------------
    def gru_gates_fwd(self, pre: np.ndarray, h: np.ndarray, s: np.ndarray,
                      rh: np.ndarray) -> None:
        """``s = sigmoid(pre)`` (both gates), ``rh = s[..., :H] * h``."""
        hidden = h.shape[-1]
        s[...] = stable_sigmoid(pre)
        np.multiply(s[..., :hidden], h, out=rh)
