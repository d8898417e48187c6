"""Spatiotemporal forecasting models.

Every model maps an input sequence ``[batch, horizon, nodes, features]`` to
a prediction sequence ``[batch, horizon, nodes, 1]`` (the primary signal
channel), matching the paper's sequence-to-sequence formulation.
"""

from repro.models.base import STModel
from repro.models.dconv import DiffusionConv
from repro.models.dcrnn import DCGRUCell, DCRNN
from repro.models.pgt_dcrnn import PGTDCRNN
from repro.models.tgcn import TGCN
from repro.models.a3tgcn import A3TGCN
from repro.models.stllm import STLLM

__all__ = [
    "STModel",
    "DiffusionConv",
    "DCGRUCell",
    "DCRNN",
    "PGTDCRNN",
    "TGCN",
    "A3TGCN",
    "STLLM",
]
