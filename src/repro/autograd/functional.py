"""Differentiable functions that combine multiple tensors or need extras.

Everything here follows the same convention as Tensor methods: compute the
forward value with NumPy, then (when gradients are enabled) attach a closure
that routes the output gradient to each input.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor, unbroadcast


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (grad is a split)."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = tensors[0]._make(data, tensors)
    if out.requires_grad:
        # Precompute each input's slice of the output; backward hands out
        # zero-copy views instead of paying np.split's dispatch per call.
        ax = axis if axis >= 0 else data.ndim + axis
        head = (slice(None),) * ax
        slices = []
        offset = 0
        for t in tensors:
            size = t.data.shape[axis]
            slices.append(head + (slice(offset, offset + size),))
            offset += size

        def _bw(g: np.ndarray) -> None:
            for t, sl in zip(tensors, slices):
                t._accumulate(g[sl])

        out._backward = _bw
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    out = tensors[0]._make(data, tensors)
    if out.requires_grad:

        def _bw(g: np.ndarray) -> None:
            for i, t in enumerate(tensors):
                t._accumulate(np.take(g, i, axis=axis))

        out._backward = _bw
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = x._make(s, (x,))
    if out.requires_grad:

        def _bw(g: np.ndarray) -> None:
            dot = (g * s).sum(axis=axis, keepdims=True)
            x._accumulate(s * (g - dot))

        out._backward = _bw
    return out


def gru_update(u: Tensor, h: Tensor, cand: Tensor) -> Tensor:
    """Fused GRU state update ``u * h + (1 - u) * cand`` as one graph node.

    Computes the same elementary operations (and therefore the same
    floating-point values) as the four-node composition it replaces, but
    records a single backward closure instead of four.
    """
    u = as_tensor(u)
    h = as_tensor(h, like=u)
    cand = as_tensor(cand, like=u)
    ud, hd, cd = u.data, h.data, cand.data
    one_minus_u = 1.0 - ud
    data = ud * hd
    data += one_minus_u * cd
    out = u._make(data, (u, h, cand))
    if out.requires_grad:

        def _bw(g: np.ndarray) -> None:
            gu = g * hd
            gu -= g * cd
            u._accumulate(unbroadcast(gu, ud.shape))
            h._accumulate(unbroadcast(g * ud, hd.shape))
            cand._accumulate(unbroadcast(g * one_minus_u, cd.shape))

        out._backward = _bw
    return out
