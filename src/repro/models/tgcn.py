"""T-GCN: graph convolution + GRU (Zhao et al. 2020), the backbone of A3T-GCN.

T-GCN's graph convolution ``A_hat X W + b`` is a diffusion convolution over
one support (the symmetric-normalised adjacency ``A_hat``) with one hop and
no identity block, so its GRU is a :class:`~repro.models.dcrnn.DCGRUCell`
and the stepwise model is PGT-DCRNN's one-node fused recurrence over it.
"""

from __future__ import annotations

import scipy.sparse as sp

from repro.graph.supports import symmetric_normalized_adjacency
from repro.models.pgt_dcrnn import PGTDCRNN


class TGCN(PGTDCRNN):
    """Stepwise T-GCN emitting one prediction per input step."""

    seed_prefix = "tgcn"

    def __init__(self, weights: sp.spmatrix, horizon: int, in_features: int,
                 hidden_dim: int = 64, *, seed: int | str = 0):
        super().__init__([symmetric_normalized_adjacency(weights)], horizon,
                         in_features, hidden_dim, k_hops=1, identity=False,
                         seed=seed)
