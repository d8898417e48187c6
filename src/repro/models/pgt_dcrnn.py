"""PGT-DCRNN: the lightweight PGT variant of DCRNN (paper §3).

The paper's case study modifies PGT's DCRNN layer to support batching and
*stepwise* sequence-to-sequence prediction: a single spatiotemporal
diffusion-convolution recurrent layer maintains a hidden state across the
input sequence and emits an output at every step, "producing a prediction
sequence of equal length to the input".  No encoder-decoder, no scheduled
sampling — that is exactly why it is ~15x faster than the full DCRNN while
remaining a faithful diffusion-convolution model.

The hidden state is carried **node-major** (``[N, B, H]``) across the
sequence: the input window is transposed once to ``[T, N, B, F]`` and
:meth:`~repro.models.dcrnn.DCGRUCell.sequence` runs every step, copying
each ``h_t`` into slice ``t`` of one batch-major ``[T, B, N, H]`` slab,
allocated per call.  The projection is one ``matmul`` over that slab, and
the whole forward is **one autograd node** whose parents are the six
parameters.  Each slice is the contiguous ``[B, N, H]`` block ``Linear``
saw per step, and the node's backward hands out ``Linear``'s terms in the
order its per-step nodes did: for ``t`` in forward order, the bias, then
the weight; then the recurrence walks back in time and sets each state
gradient to its projection term before anything else reaches it (the
accumulation-order contract is in :mod:`repro.models.dcrnn`): the readout
callback writes ``g_t W_p^T`` into the recurrence's own two state-gradient
buffers.  So the fixed-seed curves are those of the batch-major
recurrence.  Every array a caller receives is freshly allocated.

:class:`~repro.models.tgcn.TGCN` is this model over T-GCN's cell (one
support, one hop, no identity block).
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

    seed_prefix = "pgtdcrnn"

    def __init__(self, supports: list[sp.spmatrix], horizon: int,
                 in_features: int, hidden_dim: int = 64, k_hops: int = 2,
                 *, identity: bool = True, seed: int | str = 0):
        super().__init__()
        self.horizon = horizon
        self.num_nodes = supports[0].shape[0]
        self.in_features = in_features
        self.hidden_dim = hidden_dim
        name = f"{self.seed_prefix}{seed}"
        self.cell = DCGRUCell(supports, in_features, hidden_dim, k_hops,
                              identity=identity, seed_name=f"{name}.cell")
        self.proj = Linear(hidden_dim, 1, seed_name=f"{name}.proj")

    def forward(self, x: Tensor) -> Tensor:
        self.check_input(x)
        if x.requires_grad and is_grad_enabled():
            raise NotImplementedError(
                "PGTDCRNN does not propagate gradients to its input window")
        steps = self.horizon
        xs = np.ascontiguousarray(x.data.transpose(1, 2, 0, 3))  # [T,N,B,F]
        hb = np.empty((steps, x.shape[0], self.num_nodes, self.hidden_dim),
                      xs.dtype)                                  # [T,B,N,H]
        walk = self.cell.sequence(xs, hb)
        cell, w, b = self.cell, self.proj.weight, self.proj.bias
        y = np.matmul(hb, w.data)
        y += b.data
        out = w._make(np.ascontiguousarray(y.transpose(1, 0, 2, 3)),
                      (cell.gates.weight, cell.gates.bias,
                       cell.candidate.weight, cell.candidate.bias, w, b))
        if out.requires_grad:

            def _bw(g: np.ndarray) -> None:
                gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3))
                gb = gt.reshape(steps, -1).sum(axis=1)
                gw = np.matmul(hb.swapaxes(-1, -2), gt)          # [T,B,H,1]
                for t in range(steps):            # Linear's order, per step
                    b._accumulate(gb[t:t + 1])
                    w._accumulate(gw[t].sum(axis=0))
                if walk is not None:              # then the recurrence
                    gn, v = gt.transpose(0, 2, 1, 3), w.data.T
                    walk(lambda t, out: np.multiply(gn[t], v, out=out))

            out._backward = _bw
        return out

    def flops_per_snapshot(self) -> float:
        per_step = self.cell.flops(1) + 2.0 * self.num_nodes * self.hidden_dim
        return 3.0 * self.horizon * per_step
