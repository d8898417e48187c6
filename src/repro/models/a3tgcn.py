"""A3T-GCN: Attention Temporal Graph Convolutional Network (Zhu et al. 2020).

T-GCN hidden states over the input sequence are combined by a learned
global temporal-attention weighting; the context vector feeds a regression
head that emits the whole output sequence at once.  This is the model of
the paper's broader-applicability study (Table 6), integrated with
index-batching exactly like DCRNN because it consumes the same
sequence-to-sequence batches.

The states come from T-GCN's fused recurrence
(:meth:`~repro.models.dcrnn.DCGRUCell.sequence` over one support, one hop,
no identity block) as one ``[B, T, N, H]`` autograd node, whose backward
hands each step's gradient to the recurrence's walk; the attention pooling
composes Tensor ops over that node.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd import functional as F
from repro.autograd.grad_mode import is_grad_enabled
from repro.autograd.tensor import Tensor
from repro.graph.supports import symmetric_normalized_adjacency
from repro.models.base import STModel
from repro.models.dcrnn import DCGRUCell
from repro.nn.layers import Linear


class A3TGCN(STModel):
    """Attention-pooled T-GCN for multi-step forecasting."""

    def __init__(self, weights: sp.spmatrix, horizon: int, in_features: int,
                 hidden_dim: int = 32, attention_dim: int = 16,
                 *, seed: int | str = 0):
        super().__init__()
        self.horizon = horizon
        self.num_nodes = weights.shape[0]
        self.in_features = in_features
        self.hidden_dim = hidden_dim
        support = symmetric_normalized_adjacency(weights)
        self.cell = DCGRUCell([support], in_features, hidden_dim, 1,
                              identity=False, seed_name=f"a3tgcn{seed}.cell")
        # Global attention over time: score each hidden state.
        self.attn_hidden = Linear(hidden_dim, attention_dim,
                                  seed_name=f"a3tgcn{seed}.attn1")
        self.attn_score = Linear(attention_dim, 1,
                                 seed_name=f"a3tgcn{seed}.attn2")
        self.head = Linear(hidden_dim, horizon, seed_name=f"a3tgcn{seed}.head")

    def forward(self, x: Tensor) -> Tensor:
        self.check_input(x)
        if x.requires_grad and is_grad_enabled():
            raise NotImplementedError(
                "A3TGCN does not propagate gradients to its input window")
        batch, cell = x.shape[0], self.cell
        xs = np.ascontiguousarray(x.data.transpose(1, 2, 0, 3))  # [T,N,B,F]
        hb = np.empty((batch, self.horizon, self.num_nodes, self.hidden_dim),
                      xs.dtype)                                  # [B,T,N,H]
        walk = cell.sequence(xs, hb.swapaxes(0, 1))
        seq = x._make(hb, (cell.gates.weight, cell.gates.bias,
                           cell.candidate.weight, cell.candidate.bias))
        if seq.requires_grad:
            seq._backward = lambda g: walk(
                lambda t, out: np.copyto(out, g[:, t].transpose(1, 0, 2)))
        scores = self.attn_score(self.attn_hidden(seq).tanh())  # [B, T, N, 1]
        weights = F.softmax(scores, axis=1)
        context = (seq * weights).sum(axis=1)         # [B, N, H]
        out = self.head(context)                      # [B, N, horizon]
        return out.transpose(0, 2, 1).reshape(batch, self.horizon,
                                              self.num_nodes, 1)

    def flops_per_snapshot(self) -> float:
        n, hid = self.num_nodes, self.hidden_dim
        att = self.attn_hidden.out_features
        # Per step: the recurrence, the two-layer score MLP and the
        # weighted sum; then the head once, over the pooled context.
        per_step = self.cell.flops(1) + 2.0 * n * (hid * att + att + hid)
        head = 2.0 * n * hid * self.horizon
        return 3.0 * (self.horizon * per_step + head)
