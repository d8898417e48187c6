"""Reverse-mode automatic differentiation over NumPy arrays.

This subpackage is the library's stand-in for PyTorch's autograd: a
:class:`~repro.autograd.tensor.Tensor` wraps a ``numpy.ndarray`` and records
the operations applied to it; :meth:`Tensor.backward` walks the recorded
graph in reverse topological order, accumulating gradients.

Design notes
------------
- Gradients are plain ``numpy.ndarray`` objects (no higher-order autograd).
- All binary ops broadcast with NumPy semantics; gradient reduction over
  broadcast axes is handled centrally by :func:`unbroadcast`.
- Sparse graph operators (`scipy.sparse` matrices) never enter the Tensor
  graph: :mod:`repro.autograd.sparse_kernels` prepares them once as
  constants, and the graph-convolution layers run their products (and the
  products' backward) inside their own fused nodes.
"""

from repro.autograd import functional
from repro.autograd.buffers import GRAD_POOL, ArrayPool
from repro.autograd.grad_mode import is_grad_enabled, no_grad
from repro.autograd.sparse_kernels import PreparedCSR
from repro.autograd.tensor import Tensor, as_tensor, unbroadcast

__all__ = [
    "Tensor",
    "as_tensor",
    "unbroadcast",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "ArrayPool",
    "GRAD_POOL",
    "PreparedCSR",
]
