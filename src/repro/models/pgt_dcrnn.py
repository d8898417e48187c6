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
output projection sees batch-major data, through one contiguous copy of
``h_t`` per step, so ``Linear``'s reduction order and the loss's summation
order -- and with them the fixed-seed curves -- are those of the
batch-major recurrence (the accumulation-order contract is in
:mod:`repro.models.dcrnn`).  That copy node's backward is also what puts
the projection's gradient into ``h_t.grad`` before the recurrence adds
its own.  Every array a caller receives is freshly allocated.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd import functional as F
from repro.autograd.grad_mode import is_grad_enabled
from repro.autograd.tensor import Tensor
from repro.models.base import STModel
from repro.models.dcrnn import DCGRUCell
from repro.nn.layers import Linear


def _batch_major(h: Tensor) -> Tensor:
    """Contiguous ``[B, N, H]`` copy of a node-major ``[N, B, H]`` state."""
    out = h._make(np.ascontiguousarray(h.data.transpose(1, 0, 2)), (h,))
    if out.requires_grad:

        def _bw(g: np.ndarray) -> None:
            h._accumulate(g.transpose(1, 0, 2))

        out._backward = _bw
    return out


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
        outputs = []
        for t in range(self.horizon):
            h = self.cell.step(xs[t], h)
            outputs.append(self.proj(_batch_major(h)))
        return F.stack(outputs, axis=1)

    def flops_per_snapshot(self) -> float:
        per_step = self.cell.flops(1) + 2.0 * self.num_nodes * self.hidden_dim
        return 3.0 * self.horizon * per_step
