"""The op-by-op GRU recurrence of DCRNN's batch-major cells.

DCRNN's cell replaces the GRU's matmuls with diffusion convolutions (see
:mod:`repro.models.dcrnn`).  DCRNN's encoder and decoder step it one
Tensor op at a time, because they need input gradients and per-step
decoding; PGT-DCRNN, T-GCN and A3T-GCN run the same arithmetic fused in
``DCGRUCell.sequence``.  ST-LLM does not use recurrence at all.
"""

from __future__ import annotations

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor


def gru_cell_step(gates, candidate, x: Tensor, h: Tensor,
                  hidden_size: int) -> Tensor:
    """One GRU recurrence, as ``DCGRUCell.forward`` composes it.

    ``gates`` / ``candidate`` map a concatenated input to pre-activations
    (``2*hidden`` and ``hidden`` wide respectively) — diffusion or graph
    convolutions, following the PyTorch gate layout.
    """
    xh = F.concat([x, h], axis=-1)
    g = gates(xh).sigmoid()
    r = g[..., :hidden_size]
    u = g[..., hidden_size:]
    cand = candidate(F.concat([x, r * h], axis=-1)).tanh()
    return F.gru_update(u, h, cand)
