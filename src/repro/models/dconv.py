"""Diffusion convolution (Li et al. 2018), the spatial operator of DCRNN
and, with one support and one hop, T-GCN's graph convolution.

For supports ``{P_s}`` (forward/backward random-walk matrices) and diffusion
order ``K``, the layer computes

    out = concat_k,s( P_s^k X ) W + b

i.e. features are propagated 0..K hops along each diffusion direction and
the concatenated hop features are mixed by a dense map.  The number of
concatenated blocks is ``1 + S*K`` (identity hop counted once), or ``S*K``
without the identity block (``identity=False``): T-GCN's ``A_hat X W + b``
is ``S = K = 1`` with no identity block.

The layer works **node-major**: ``[nodes, batch, F]`` is the layout in
which one CSR product covers the whole batch and the hop block is a plain
2-D GEMM operand, so the work lives in a node-major core (``_bind`` /
``_bind_backward``) that writes hops straight into slices of one
``[nodes, batch, num_matrices * in_dim]`` block, one sparse product per
hop for all supports (the cached operators of ``stacked_csr``, shared by
every layer over the same support set) into scratch that persists.  The
core is *bound*: it resolves the operators, the hop chain's flat operands
(through ``repro.kernels``) and the weight arrays once, and returns a
closure a caller runs once or once per recurrence step.  It has two thin
entry points: :meth:`DiffusionConv.forward` (batch-major in and out, one
transposed copy each way, one bind and one autograd node per call; DCRNN's
cells) and :meth:`repro.models.dcrnn.DCGRUCell.sequence` (already
node-major, no copies, both convolutions bound once for a whole sequence;
PGT-DCRNN, T-GCN and A3T-GCN).  Backward
owns only the hop block of its call (it is the GEMM input whose transpose
gives the weight gradient); every gradient buffer is per-layer scratch,
valid until that layer's next backward, so callers accumulate from it
before returning.  Within one backward the weight gradient accumulates
before the bias gradient, and a caller decides where the input gradient
goes: the order of those ``_accumulate`` calls is part of the fixed-seed
curves.

The parity references (public autograd ops hop by hop; one scipy product
per hop per support, bit for bit) live in the tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import kernels
from repro.autograd.grad_mode import is_grad_enabled
from repro.autograd.sparse_kernels import stacked_csr
from repro.autograd.tensor import Tensor
from repro.nn.init import glorot_uniform, zeros_
from repro.nn.module import Module, Parameter
from repro.utils.errors import ShapeError
from repro.utils.seeding import new_rng


class _Scratch:
    """Per-(batch, dtype) persistent buffers for one DiffusionConv."""

    __slots__ = ("x0", "ping", "pong", "gout", "gcat", "gx", "gw", "gb",
                 "cat_eval")

    def __init__(self, n: int, b: int, f: int, s: int, m: int, o: int, dtype):
        self.x0 = np.empty((n, b, f), dtype)      # hop-0 input, node-major
        self.ping = np.empty((s, n, b, f), dtype)  # rotating hop buffers
        self.pong = np.empty((s, n, b, f), dtype)
        self.gout = np.empty((n, b, o), dtype)    # transposed output grad
        self.gcat = np.empty((n, b, m * f), dtype)
        self.gx = np.empty((n, b, f), dtype)      # accumulated input grad
        self.gw = np.empty((m * f, o), dtype)
        self.gb = np.empty((o,), dtype)
        self.cat_eval = None                      # lazy: no-grad forward only


def cached_scratch(cache: dict, b: int, dtype: np.dtype, make):
    """``cache[(batch, dtype)]``, built by ``make()`` on a miss; bounded."""
    key = (b, dtype.str)
    scr = cache.get(key)
    if scr is None:
        if len(cache) > 8:  # distinct batch sizes are rare
            cache.clear()
        scr = cache[key] = make()
    return scr


class DiffusionConv(Module):
    """K-hop diffusion convolution over ``[batch, nodes, in_dim]`` inputs."""

    def __init__(self, supports: list[sp.spmatrix], in_dim: int, out_dim: int,
                 k_hops: int = 2, *, identity: bool = True,
                 seed_name: str = "dconv"):
        super().__init__()
        if k_hops < 0 or (k_hops == 0 and not identity):
            raise ValueError("k_hops must be >= 0, and >= 1 without the "
                             "identity block")
        self.supports = [s.tocsr() for s in supports]
        if not self.supports:
            raise ValueError("need at least one support matrix")
        self.num_nodes = n = self.supports[0].shape[0]
        if any(s.shape != (n, n) for s in self.supports):
            raise ShapeError("supports must be square and of one size")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.k_hops = k_hops
        self.identity = identity
        self.num_matrices = int(identity) + len(self.supports) * k_hops
        rng = new_rng("nn", seed_name, in_dim, out_dim, k_hops)
        self.weight = Parameter(
            glorot_uniform(rng, self.num_matrices * in_dim, out_dim))
        self.bias = Parameter(zeros_((out_dim,)))
        self._scratch: dict[tuple, _Scratch] = {}

    # ------------------------------------------------------------------
    def _get_scratch(self, b: int, dtype: np.dtype) -> _Scratch:
        return cached_scratch(
            self._scratch, b, dtype,
            lambda: _Scratch(self.num_nodes, b, self.in_dim,
                             len(self.supports), self.num_matrices,
                             self.out_dim, dtype))

    def _bind(self, scr: _Scratch, x0: np.ndarray, own_cat: bool):
        """Node-major core, forward, bound once: returns ``run()``.

        ``x0`` is the contiguous ``[nodes, batch, in_dim]`` hop-0 input
        (filled by the caller before each ``run``).  ``run()`` returns the
        flattened hop block and the freshly allocated ``[nodes*batch,
        out_dim]`` output of hops + one GEMM + bias.  The hop block is the
        GEMM input whose transpose yields the weight gradient, so each
        ``run`` owns a new one when backward will run (``own_cat``);
        without gradients one persistent block is reused.
        """
        n, b, f = x0.shape
        m, o = self.num_matrices, self.out_dim
        dtype = x0.dtype
        hops = kernels.active_backend().bind_hops(
            *stacked_csr(self.supports, dtype), x0, scr.ping, scr.pong,
            self.k_hops, self.identity)
        weight, bias = self.weight.data, self.bias.data
        if not own_cat and scr.cat_eval is None:
            scr.cat_eval = np.empty((n, b, m * f), dtype)
        cat_eval = scr.cat_eval

        def run() -> tuple[np.ndarray, np.ndarray]:
            cat = np.empty((n, b, m * f), dtype) if own_cat else cat_eval
            hops(cat)
            cat2 = cat.reshape(n * b, m * f)
            out2 = np.empty((n * b, o), dtype)
            np.matmul(cat2, weight, out=out2)
            out2 += bias
            return cat2, out2

        return run

    def _bind_backward(self, scr: _Scratch):
        """Node-major core, backward, bound once: returns
        ``run(cat2, g2, input_grad)`` for ``g2 = d out2`` (contiguous).

        ``run`` accumulates the weight then the bias gradient, and when
        ``input_grad`` returns the hop-0 input gradient as ``scr.gx``
        (``[nodes, batch, in_dim]``, valid until this layer's next
        backward).
        """
        weight, bias = self.weight, self.bias
        gw_on, gb_on = weight.requires_grad, bias.requires_grad
        w_t, gx, gw, gb = weight.data.T, scr.gx, scr.gw, scr.gb
        gcat2 = scr.gcat.reshape(-1, scr.gcat.shape[-1])
        chain = kernels.active_backend().bind_hops_backward(
            stacked_csr(self.supports, gx.dtype)[1].T, scr.gcat, gx,
            scr.ping, scr.pong, self.k_hops, self.identity)

        def run(cat2: np.ndarray, g2: np.ndarray,
                input_grad: bool) -> np.ndarray | None:
            if gw_on:
                np.matmul(cat2.T, g2, out=gw)
                weight._accumulate(gw)
            if gb_on:
                np.add.reduce(g2, axis=0, out=gb)
                bias._accumulate(gb)
            if not input_grad:
                return None
            np.matmul(g2, w_t, out=gcat2)
            chain()
            return gx

        return run

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[1] != self.num_nodes or x.shape[2] != self.in_dim:
            raise ShapeError(f"expected [batch, {self.num_nodes}, {self.in_dim}], "
                             f"got {x.shape}")
        b, n, _ = x.shape
        scr = self._get_scratch(b, x.dtype)
        rg = is_grad_enabled() and (x.requires_grad or
                                    self.weight.requires_grad or
                                    self.bias.requires_grad)
        np.copyto(scr.x0, x.data.transpose(1, 0, 2))
        cat2, out2 = self._bind(scr, scr.x0, rg)()
        out = x._make(out2.reshape(n, b, -1).transpose(1, 0, 2),
                      (x, self.weight, self.bias))
        if out.requires_grad:

            def _bw(g: np.ndarray) -> None:
                np.copyto(scr.gout, g.transpose(1, 0, 2))
                gx = self._bind_backward(scr)(
                    cat2, scr.gout.reshape(out2.shape), x.requires_grad)
                if gx is not None:
                    x._accumulate(gx.transpose(1, 0, 2))

            out._backward = _bw
        return out

    def flops(self, batch: int) -> float:
        """Forward flops for a batch (sparse propagation + dense mix)."""
        nnz = sum(s.nnz for s in self.supports)
        prop = 2.0 * batch * nnz * self.in_dim * self.k_hops
        mix = 2.0 * batch * self.num_nodes * self.num_matrices * self.in_dim * self.out_dim
        return prop + mix
