"""Core dense layers: Linear, LayerNorm, Dropout."""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.init import glorot_uniform, zeros_
from repro.nn.module import Module, Parameter
from repro.utils.seeding import new_rng


class Linear(Module):
    """Affine map ``y = x W + b`` applied to the last axis."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 *, seed_name: str = "linear"):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = new_rng("nn", seed_name, in_features, out_features)
        self.weight = Parameter(glorot_uniform(rng, in_features, out_features))
        self.bias = Parameter(zeros_((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    """Layer normalisation over the last axis with learned scale and shift."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim, dtype=np.float32))
        self.bias = Parameter(zeros_((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv = (var + self.eps) ** -0.5
        return centered * inv * self.weight + self.bias


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.1, *, seed_name: str = "dropout"):
        super().__init__()
        self.p = p
        self._rng = new_rng("nn", seed_name, p)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)
