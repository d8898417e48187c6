"""Recurrent cells.

Only the GRU cell is needed: DCRNN replaces its matmuls with diffusion
convolutions (see :mod:`repro.models.dcrnn`), TGCN with graph convolutions,
and ST-LLM does not use recurrence at all.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.init import glorot_uniform, zeros_
from repro.nn.module import Module, Parameter
from repro.utils.seeding import new_rng


def gru_cell_step(gates, candidate, x: Tensor, h: Tensor,
                  hidden_size: int) -> Tensor:
    """One GRU recurrence, shared by GRUCell, DCGRUCell and TGCNCell.

    ``gates`` / ``candidate`` map a concatenated input to pre-activations
    (``2*hidden`` and ``hidden`` wide respectively) — a dense affine map
    for the plain cell, diffusion/graph convolutions for the ST variants.
    """
    xh = F.concat([x, h], axis=-1)
    g = gates(xh).sigmoid()
    r = g[..., :hidden_size]
    u = g[..., hidden_size:]
    cand = candidate(F.concat([x, r * h], axis=-1)).tanh()
    return F.gru_update(u, h, cand)


class GRUCell(Module):
    """Standard gated recurrent unit cell.

    Follows the PyTorch gate layout: reset/update gates from a fused affine
    map of ``[x, h]``, candidate from ``[x, r*h]``.
    """

    def __init__(self, input_size: int, hidden_size: int, *, seed_name: str = "gru"):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        rng = new_rng("nn", seed_name, input_size, hidden_size)
        in_dim = input_size + hidden_size
        self.w_gates = Parameter(glorot_uniform(rng, in_dim, 2 * hidden_size))
        self.b_gates = Parameter(np.ones(2 * hidden_size, dtype=np.float32))
        self.w_cand = Parameter(glorot_uniform(rng, in_dim, hidden_size))
        self.b_cand = Parameter(zeros_((hidden_size,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return gru_cell_step(
            lambda t: t @ self.w_gates + self.b_gates,
            lambda t: t @ self.w_cand + self.b_cand,
            x, h, self.hidden_size)

    def init_hidden(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size), dtype=np.float32))
