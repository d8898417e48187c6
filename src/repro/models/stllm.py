"""ST-LLM: spatial-temporal token embeddings + a GPT-2-style transformer.

Liu et al. (2024) encode each node's input window as a token, add spatial
and temporal embeddings, and run the tokens through a (partially frozen)
GPT-2.  The paper's Figure 10 scales this model with
distributed-index-batching on PeMS-BAY — possible because ST-LLM consumes
exactly the same sequence-to-sequence batches.

We build the same architecture at configurable size: a per-node window
projection, learned spatial + time-of-day embeddings, ``num_blocks``
pre-norm transformer blocks (optionally frozen, mirroring the frozen
pretrained backbone), and a regression head over the output horizon.
Tokens attend over the *node* axis, giving spatial mixing.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.models.base import STModel
from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import LayerNorm, Linear
from repro.nn.module import Module, Parameter
from repro.utils.seeding import new_rng


class TransformerBlock(Module):
    """Pre-norm transformer block (GPT-2 style)."""

    def __init__(self, dim: int, num_heads: int, mlp_ratio: int = 4,
                 *, seed_name: str = "block"):
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, num_heads, seed_name=f"{seed_name}.attn")
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, mlp_ratio * dim, seed_name=f"{seed_name}.fc1")
        self.fc2 = Linear(mlp_ratio * dim, dim, seed_name=f"{seed_name}.fc2")

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        h = self.fc2(self.fc1(self.ln2(x)).relu())
        return x + h


class STLLM(STModel):
    """Token-embedding transformer for spatiotemporal forecasting."""

    def __init__(self, num_nodes: int, horizon: int, in_features: int,
                 dim: int = 64, num_heads: int = 4, num_blocks: int = 2,
                 frozen_blocks: int = 0, *, seed: int | str = 0):
        super().__init__()
        if frozen_blocks > num_blocks:
            raise ValueError("frozen_blocks cannot exceed num_blocks")
        self.horizon = horizon
        self.num_nodes = num_nodes
        self.in_features = in_features
        self.dim = dim
        rng = new_rng("model", "stllm", seed)
        # Each node's flattened input window becomes one token.
        self.input_proj = Linear(horizon * in_features, dim,
                                 seed_name=f"stllm{seed}.proj")
        self.spatial_emb = Parameter(
            (rng.standard_normal((num_nodes, dim)) * 0.02).astype(np.float32))
        # Time-of-day context reads the last channel, so a single-channel
        # input has none and builds no projection (its seed stream is
        # keyed by name: no other weight moves).
        self.temporal_proj = (
            Linear(horizon, dim, seed_name=f"stllm{seed}.time")
            if in_features > 1 else None)
        self.blocks = [
            TransformerBlock(dim, num_heads, seed_name=f"stllm{seed}.block{i}")
            for i in range(num_blocks)
        ]
        # Freeze the first `frozen_blocks` blocks (pretrained-backbone
        # analogue): their parameters receive no gradient updates.
        for block in self.blocks[:frozen_blocks]:
            for p in block.parameters():
                p.requires_grad = False
        self.ln_f = LayerNorm(dim)
        self.head = Linear(dim, horizon, seed_name=f"stllm{seed}.head")

    def forward(self, x: Tensor) -> Tensor:
        self.check_input(x)
        batch = x.shape[0]
        # [B, h, N, F] -> tokens [B, N, h*F]
        tokens = x.transpose(0, 2, 1, 3).reshape(batch, self.num_nodes,
                                                 self.horizon * self.in_features)
        emb = self.input_proj(tokens) + self.spatial_emb
        # Time-of-day context from the last feature channel, node-averaged.
        if self.temporal_proj is not None:
            tod = x[:, :, :, self.in_features - 1].mean(axis=2)  # [B, h]
            emb = emb + self.temporal_proj(tod).reshape(batch, 1, self.dim)
        h = emb
        for block in self.blocks:
            h = block(h)
        h = self.ln_f(h)
        out = self.head(h)  # [B, N, horizon]
        return out.transpose(0, 2, 1).reshape(batch, self.horizon,
                                              self.num_nodes, 1)

    def flops_per_snapshot(self) -> float:
        n, d = self.num_nodes, self.dim
        per_block = 4 * 2 * n * d * d + 2 * 2 * n * n * d + 2 * 2 * n * d * 4 * d
        total = len(self.blocks) * per_block + 2 * n * self.horizon * (
            self.in_features * self.dim + self.dim)
        return 3.0 * total
