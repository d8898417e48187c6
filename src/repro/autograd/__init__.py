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
- The op set is what the models train through, no more: the losses, the
  projections, A3T-GCN's attention pooling, ST-LLM and DCRNN's op-by-op
  cells.  ``tests/test_layering.py::test_every_backward_is_reached`` runs
  every registered model's training step and fails on a backward closure
  none of them reaches, so an op comes back with its first caller.
- ``@`` takes operands of two or more dimensions (a 1-D operand is a
  :class:`~repro.utils.errors.ShapeError`); gradient recording is switched
  off with :func:`no_grad` and has no re-enabling counterpart.
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
