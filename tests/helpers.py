"""Shared test utilities: numerical gradient checking, and the sparse
product of the op-by-op graph-convolution references."""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.autograd.tensor import Tensor


def numerical_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                   eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(build: Callable[[Tensor], "Tensor"], x: np.ndarray,
                   atol: float = 1e-6, rtol: float = 1e-4) -> None:
    """Assert autograd gradient of ``build(x).sum()`` matches numerics."""
    x = np.asarray(x, dtype=np.float64)
    t = Tensor(x, requires_grad=True, dtype=np.float64)
    out = build(t)
    loss = out.sum()
    loss.backward()
    assert t.grad is not None, "no gradient accumulated"

    def f(arr: np.ndarray) -> float:
        t2 = Tensor(arr, dtype=np.float64)
        return float(build(t2).sum().data)

    num = numerical_grad(f, x)
    np.testing.assert_allclose(t.grad, num, atol=atol, rtol=rtol)


def canonical_csr(matrix: sp.spmatrix, dtype) -> sp.csr_matrix:
    """``matrix`` cast to ``dtype`` with each row's entries sorted, in a
    copy: the operand order every fused graph convolution sums in."""
    csr = matrix.tocsr().astype(dtype, copy=True)
    csr.sum_duplicates()
    return csr


def sparse_matmul(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """``A @ x`` for a constant sparse ``A`` and ``x [batch, n, d]``, as a
    Tensor op (gradient to ``x`` only).

    Each product is one plain scipy ``csr @ [n, batch*d]`` block, i.e.
    scipy's ``csr_matvecs`` over a zeroed output, the kernel and row order
    of the fused convolutions: node-major, so one product covers the batch.
    """
    a = canonical_csr(matrix, x.dtype)
    a_t = canonical_csr(a.T, x.dtype)

    def product(m: sp.csr_matrix, v: np.ndarray) -> np.ndarray:
        b, n, d = v.shape
        flat = np.ascontiguousarray(v.transpose(1, 0, 2)).reshape(n, b * d)
        return (m @ flat).reshape(m.shape[0], b, d).transpose(1, 0, 2)

    out = x._make(product(a, x.data), (x,))
    if out.requires_grad:
        out._backward = lambda g: x._accumulate(product(a_t, g))
    return out
