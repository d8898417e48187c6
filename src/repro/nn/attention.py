"""Scaled-dot-product and multi-head attention, ST-LLM's token mixer."""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.layers import Linear
from repro.nn.module import Module


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Attention over the second-to-last axis of ``k``/``v``.

    Shapes: ``q [..., Tq, d]``, ``k [..., Tk, d]``, ``v [..., Tk, dv]``.
    """
    d = q.shape[-1]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / float(np.sqrt(d)))
    attn = F.softmax(scores, axis=-1)
    return attn @ v


class MultiHeadAttention(Module):
    """Multi-head self-attention over ``[batch, seq, dim]`` inputs."""

    def __init__(self, dim: int, num_heads: int, *, seed_name: str = "mha"):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, seed_name=f"{seed_name}.q")
        self.k_proj = Linear(dim, dim, seed_name=f"{seed_name}.k")
        self.v_proj = Linear(dim, dim, seed_name=f"{seed_name}.v")
        self.out_proj = Linear(dim, dim, seed_name=f"{seed_name}.o")

    def _split_heads(self, x: Tensor) -> Tensor:
        b, t, _ = x.shape
        return x.reshape(b, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor) -> Tensor:
        b, t, _ = x.shape
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(x))
        v = self._split_heads(self.v_proj(x))
        out = scaled_dot_product_attention(q, k, v)
        out = out.transpose(0, 2, 1, 3).reshape(b, t, self.dim)
        return self.out_proj(out)
