"""Differentiable functions that combine multiple tensors or need extras.

Everything here follows the same convention as Tensor methods: compute the
forward value with NumPy, then (when gradients are enabled) attach a closure
that routes the output gradient to each input.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.autograd.buffers import GRAD_POOL
from repro.autograd.sparse_kernels import prepared_csr
from repro.autograd.tensor import Tensor, as_tensor, unbroadcast
from repro.utils.errors import ShapeError


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


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a constant boolean array."""
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    cond = np.asarray(condition)
    out = a._make(np.where(cond, a.data, b.data), (a, b))
    if out.requires_grad:

        def _bw(g: np.ndarray) -> None:
            a._accumulate(unbroadcast(g * cond, a.data.shape))
            b._accumulate(unbroadcast(g * (~cond), b.data.shape))

        out._backward = _bw
    return out


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to ``[lo, hi]``; gradient is zero outside the range."""
    x = as_tensor(x)
    mask = (x.data >= lo) & (x.data <= hi)
    out = x._make(np.clip(x.data, lo, hi), (x,))
    if out.requires_grad:

        def _bw(g: np.ndarray) -> None:
            x._accumulate(g * mask)

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


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    ls = shifted - log_z
    out = x._make(ls, (x,))
    if out.requires_grad:
        smax = np.exp(ls)

        def _bw(g: np.ndarray) -> None:
            x._accumulate(g - smax * g.sum(axis=axis, keepdims=True))

        out._backward = _bw
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    out = x._make(x.data * keep, (x,))
    if out.requires_grad:

        def _bw(g: np.ndarray) -> None:
            x._accumulate(g * keep)

        out._backward = _bw
    return out


def sparse_matmul(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor: ``A @ x``.

    ``x`` may be 2-D ``[n, d]`` or 3-D ``[batch, n, d]`` (applied per batch
    element by flattening the trailing axes, the standard GNN trick).  The
    sparse operand is a graph support and receives no gradient.

    The support is prepared once per compute dtype (CSR arrays cast to
    ``x.dtype``, transpose precomputed) and the product runs through the
    raw CSR kernel; layout scratch comes from the shared array pool, so
    steady-state calls allocate only the output itself.
    """
    x = as_tensor(x)
    A = prepared_csr(matrix, x.dtype)
    if x.ndim == 2:
        xd = x.data if x.data.flags.c_contiguous else np.ascontiguousarray(x.data)
        data = A.matmul(xd)
    elif x.ndim == 3:
        b, n, d = x.shape
        if n != A.shape[1]:
            raise ShapeError(f"support has {A.shape[1]} cols, input has {n} nodes")
        # [b, n, d] -> [n, b*d] so one CSR matmul covers the whole batch.
        flat = _pooled_transpose(x.data)
        data = A.matmul(flat.reshape(n, b * d)).reshape(A.shape[0], b, d)
        GRAD_POOL.give(flat)
        data = data.transpose(1, 0, 2)
    else:
        raise ShapeError(f"sparse_matmul expects 2-D or 3-D input, got {x.ndim}-D")
    out = x._make(data, (x,))
    if out.requires_grad:
        At = A.T

        def _bw(g: np.ndarray) -> None:
            if g.ndim == 2:
                gd = g if g.flags.c_contiguous else np.ascontiguousarray(g)
                res = _pooled_empty((At.shape[0], g.shape[1]), gd.dtype)
                x._accumulate(At.matmul_out(gd, res))
                GRAD_POOL.give(res)
            else:
                b, m, d = g.shape
                flat = _pooled_transpose(g)
                res = _pooled_empty((At.shape[0], b, d), flat.dtype)
                At.matmul_out(flat.reshape(m, b * d), res.reshape(-1, b * d))
                x._accumulate(res.transpose(1, 0, 2))
                GRAD_POOL.give(flat)
                GRAD_POOL.give(res)

        out._backward = _bw
    return out


def _pooled_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A pooled (or fresh) uninitialised array for transient scratch."""
    buf = GRAD_POOL.take(shape, dtype)
    return buf if buf is not None else np.empty(shape, dtype)


def _pooled_transpose(arr: np.ndarray) -> np.ndarray:
    """Contiguous ``[n, b, d]`` copy of a ``[b, n, d]`` array via the pool."""
    b, n, d = arr.shape
    buf = _pooled_empty((n, b, d), arr.dtype)
    np.copyto(buf, arr.transpose(1, 0, 2))
    return buf


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


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum with subgradient split evenly at ties."""
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    out = a._make(np.maximum(a.data, b.data), (a, b))
    if out.requires_grad:
        ga_mask = (a.data > b.data) + 0.5 * (a.data == b.data)

        def _bw(g: np.ndarray) -> None:
            a._accumulate(unbroadcast(g * ga_mask, a.data.shape))
            b._accumulate(unbroadcast(g * (1.0 - ga_mask), b.data.shape))

        out._backward = _bw
    return out


def pad_last(x: Tensor, pad: int, value: float = 0.0) -> Tensor:
    """Pad the last axis on the right with ``pad`` entries of ``value``."""
    if pad == 0:
        return x
    x = as_tensor(x)
    widths = [(0, 0)] * (x.ndim - 1) + [(0, pad)]
    out = x._make(np.pad(x.data, widths, constant_values=value), (x,))
    if out.requires_grad:

        def _bw(g: np.ndarray) -> None:
            x._accumulate(g[..., : x.shape[-1]])

        out._backward = _bw
    return out
