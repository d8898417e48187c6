"""PGT-DCRNN: the lightweight PGT variant of DCRNN (paper §3).

The paper's case study modifies PGT's DCRNN layer to support batching and
*stepwise* sequence-to-sequence prediction: a single spatiotemporal
diffusion-convolution recurrent layer maintains a hidden state across the
input sequence and emits an output at every step, "producing a prediction
sequence of equal length to the input".  No encoder-decoder, no scheduled
sampling — that is exactly why it is ~15x faster than the full DCRNN while
remaining a faithful diffusion-convolution model.

The hidden state is carried **node-major** (``[N, B, H]``) across the
sequence: the input window is transposed once to ``[T, N, B, F]`` and each
step is one :meth:`~repro.models.dcrnn.DCGRUCell.step` node.  Only the
output projection sees batch-major data: each ``h_t`` is copied into slice
``t`` of one ``[T, B, N, H]`` slab, allocated per call, and a single node
projects the whole horizon with one ``matmul``, so a forward at horizon 12
builds 13 autograd nodes.  Each slice is the contiguous ``[B, N, H]`` block
``Linear`` saw per step, and the node's backward hands out ``Linear``'s
terms in the order its per-step nodes did: for ``t`` in forward order, the
bias, the weight, then ``h_t``'s term, all before any step's backward runs
(the accumulation-order contract is in :mod:`repro.models.dcrnn`).  So the
fixed-seed curves are those of the batch-major recurrence.  Every array a
caller receives is freshly allocated.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd.grad_mode import is_grad_enabled
from repro.autograd.tensor import Tensor
from repro.models.base import STModel
from repro.models.dcrnn import DCGRUCell
from repro.nn.layers import Linear


class PGTDCRNN(STModel):
    """Single-layer stepwise DCRNN as implemented in PGT + this paper."""

    def __init__(self, supports: list[sp.spmatrix], horizon: int,
                 in_features: int, hidden_dim: int = 64, k_hops: int = 2,
                 *, seed: int | str = 0):
        super().__init__()
        self.horizon = horizon
        self.num_nodes = supports[0].shape[0]
        self.in_features = in_features
        self.hidden_dim = hidden_dim
        self.cell = DCGRUCell(supports, in_features, hidden_dim, k_hops,
                              seed_name=f"pgtdcrnn{seed}.cell")
        self.proj = Linear(hidden_dim, 1, seed_name=f"pgtdcrnn{seed}.proj")

    def forward(self, x: Tensor) -> Tensor:
        self.check_input(x)
        if x.requires_grad and is_grad_enabled():
            raise NotImplementedError(
                "PGTDCRNN does not propagate gradients to its input window")
        batch = x.shape[0]
        xs = np.ascontiguousarray(x.data.transpose(1, 2, 0, 3))  # [T,N,B,F]
        h = Tensor(np.zeros((self.num_nodes, batch, self.hidden_dim),
                            dtype=xs.dtype))
        hs = []
        hb = np.empty((self.horizon, batch, self.num_nodes, self.hidden_dim),
                      xs.dtype)                                  # [T,B,N,H]
        for t in range(self.horizon):
            h = self.cell.step(xs[t], h)
            hs.append(h)
            hb[t] = h.data.transpose(1, 0, 2)
        w, b = self.proj.weight, self.proj.bias
        y = np.matmul(hb, w.data)
        y += b.data
        out = w._make(np.ascontiguousarray(y.transpose(1, 0, 2, 3)),
                      (*hs, w, b))
        if out.requires_grad:

            def _bw(g: np.ndarray) -> None:
                gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3))
                gb = gt.reshape(len(hs), -1).sum(axis=1)
                gw = np.matmul(hb.swapaxes(-1, -2), gt)          # [T,B,H,1]
                for t, h_t in enumerate(hs):      # Linear's order, per step
                    b._accumulate(gb[t:t + 1])
                    w._accumulate(gw[t].sum(axis=0))
                    h_t._accumulate((gt[t] * w.data.T).transpose(1, 0, 2))

            out._backward = _bw
        return out

    def flops_per_snapshot(self) -> float:
        per_step = self.cell.flops(1) + 2.0 * self.num_nodes * self.hidden_dim
        return 3.0 * self.horizon * per_step
