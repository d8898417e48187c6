"""The :class:`Tensor` class: a NumPy array with reverse-mode autograd.

The implementation follows the classic define-by-run tape design: every
operation that produces a Tensor from Tensors stores a closure computing the
contribution of the output gradient to each input gradient.  ``backward()``
topologically sorts the recorded graph and runs the closures in reverse.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autograd.buffers import GRAD_POOL
from repro.autograd.grad_mode import is_grad_enabled
from repro.utils.errors import ShapeError

DEFAULT_DTYPE = np.float32


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes.

    NumPy broadcasting either prepends axes or stretches size-1 axes; the
    gradient of a broadcast is the sum over each stretched/added axis.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched size-1 axes.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"cannot unbroadcast {grad.shape} to {shape}")
    return grad


class Tensor:
    """A multidimensional array supporting reverse-mode differentiation.

    Parameters
    ----------
    data:
        Anything convertible to ``numpy.ndarray``.  Floating inputs keep
        their dtype; non-float inputs are cast to the default float dtype
        unless ``dtype`` says otherwise.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # make NumPy defer to our reflected operators
    #: Where a first-touch gradient lands; only parameters bound by an
    #: optimizer (:meth:`~repro.optim.Optimizer.bind`) set one.
    grad_slot: np.ndarray | None = None

    def __init__(self, data, requires_grad: bool = False,
                 dtype: np.dtype | None = None, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype.kind != "f":  # non-float input: cast to default float
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self.data.item()

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _make(self, data: np.ndarray, parents: Sequence["Tensor"]) -> "Tensor":
        """Create an output tensor, wiring ``requires_grad`` and parents."""
        rg = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=rg)
        if rg:
            out._parents = tuple(parents)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` without allocating when possible.

        A first touch copies into the bound ``grad_slot`` if there is one,
        else into a buffer from the shared :data:`GRAD_POOL` (refilled by
        ``backward`` when interior nodes release their gradients), so a
        steady-state training step performs no gradient allocations at all.
        """
        if not self.requires_grad:
            return
        if not (isinstance(grad, np.ndarray) and grad.dtype == self.data.dtype):
            grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = unbroadcast(grad, self.data.shape)
        if self.grad is None:
            buf = self.grad_slot
            if buf is None:
                buf = GRAD_POOL.take(self.data.shape, self.data.dtype)
            if buf is None:
                self.grad = grad.copy()
            else:
                np.copyto(buf, grad)
                self.grad = buf
        else:
            np.add(self.grad, grad, out=self.grad)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (scalar outputs are the common case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)
            # Interior activations are single-use: free their gradient and
            # graph edges so large training graphs are reclaimed eagerly
            # (important for long unrolled RNN sequences).  The gradient
            # buffer goes back to the pool for the next step's backward.
            if node._parents:
                GRAD_POOL.give(node.grad)
                node.grad = None
                node._backward = None
                node._parents = ()

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other, like=self)
        out = self._make(self.data + other.data, (self, other))
        if out.requires_grad:
            a, b = self, other

            def _bw(g: np.ndarray) -> None:
                a._accumulate(g)
                b._accumulate(g)

            out._backward = _bw
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other, like=self)
        out = self._make(self.data - other.data, (self, other))
        if out.requires_grad:
            a, b = self, other

            def _bw(g: np.ndarray) -> None:
                a._accumulate(g)
                b._accumulate(-g)

            out._backward = _bw
        return out

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other, like=self) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other, like=self)
        out = self._make(self.data * other.data, (self, other))
        if out.requires_grad:
            a, b = self, other

            def _bw(g: np.ndarray) -> None:
                a._accumulate(g * b.data)
                b._accumulate(g * a.data)

            out._backward = _bw
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor ** only supports scalar exponents")
        out = self._make(self.data ** exponent, (self,))
        if out.requires_grad:
            a = self

            def _bw(g: np.ndarray) -> None:
                a._accumulate(g * exponent * a.data ** (exponent - 1))

            out._backward = _bw
        return out

    # ------------------------------------------------------------------
    # Matmul / linear algebra
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other, like=self)
        if self.ndim < 2 or other.ndim < 2:
            raise ShapeError(f"matmul takes operands of 2 or more dims, "
                             f"got {self.shape} @ {other.shape}")
        out = self._make(self.data @ other.data, (self, other))
        if out.requires_grad:
            a, b = self, other

            def _bw(g: np.ndarray) -> None:
                ad, bd = a.data, b.data
                ga = g @ np.swapaxes(bd, -1, -2)
                gb = np.swapaxes(ad, -1, -2) @ g
                a._accumulate(unbroadcast(ga, ad.shape))
                b._accumulate(unbroadcast(gb, bd.shape))

            out._backward = _bw
        return out

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,))
        if out.requires_grad:
            a = self

            def _bw(g: np.ndarray) -> None:
                a._accumulate(g.reshape(a.data.shape))

            out._backward = _bw
        return out

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes_t = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_t = tuple(axes[0])
        else:
            axes_t = tuple(axes)
        out = self._make(self.data.transpose(axes_t), (self,))
        if out.requires_grad:
            a = self
            inv = tuple(np.argsort(axes_t))

            def _bw(g: np.ndarray) -> None:
                a._accumulate(g.transpose(inv))

            out._backward = _bw
        return out

    def swapaxes(self, a1: int, a2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a1], axes[a2] = axes[a2], axes[a1]
        return self.transpose(axes)

    def __getitem__(self, idx) -> "Tensor":
        out = self._make(self.data[idx], (self,))
        if out.requires_grad:
            a = self
            # Basic (slice/int) indexing selects each element at most once,
            # so the scatter is a plain assignment; only advanced (array)
            # indexing needs the much slower duplicate-safe np.add.at.
            basic = _is_basic_index(idx)

            def _bw(g: np.ndarray) -> None:
                full = np.zeros_like(a.data)
                if basic:
                    full[idx] = g
                else:
                    np.add.at(full, idx, g)
                a._accumulate(full)

            out._backward = _bw
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            a = self

            def _bw(g: np.ndarray) -> None:
                a._accumulate(_expand_reduced(g, a.data.shape, axis, keepdims))

            out._backward = _bw
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.mean(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            a = self
            count = a.data.size if axis is None else np.prod(
                [a.data.shape[ax] for ax in _norm_axes(axis, a.ndim)])

            def _bw(g: np.ndarray) -> None:
                a._accumulate(_expand_reduced(g, a.data.shape, axis, keepdims) / count)

            out._backward = _bw
        return out

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        out = self._make(data, (self,))
        if out.requires_grad:
            a = self

            def _bw(g: np.ndarray) -> None:
                a._accumulate(g * (1.0 - data * data))

            out._backward = _bw
        return out

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic via one exp of the negated magnitude:
        # x >= 0: 1/(1+e^-x); x < 0: e^x/(1+e^x).  Equal to the clipped
        # two-branch formulation to float precision, at a third of the cost.
        t = np.exp(-np.abs(self.data))
        denom = t + 1.0
        data = np.where(self.data >= 0, 1.0 / denom, t / denom)
        data = data.astype(self.data.dtype, copy=False)
        out = self._make(data, (self,))
        if out.requires_grad:
            a = self

            def _bw(g: np.ndarray) -> None:
                a._accumulate(g * data * (1.0 - data))

            out._backward = _bw
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make(self.data * mask, (self,))
        if out.requires_grad:
            a = self

            def _bw(g: np.ndarray) -> None:
                a._accumulate(g * mask)

            out._backward = _bw
        return out

    def abs(self) -> "Tensor":
        out = self._make(np.abs(self.data), (self,))
        if out.requires_grad:
            a = self

            def _bw(g: np.ndarray) -> None:
                a._accumulate(g * np.sign(a.data))

            out._backward = _bw
        return out


def _is_basic_index(idx) -> bool:
    """True when ``idx`` is pure basic indexing (no arrays, no bool masks)."""
    if isinstance(idx, tuple):
        return all(_is_basic_index(i) for i in idx)
    return idx is None or idx is Ellipsis or isinstance(idx, (int, slice)) \
        or (np.isscalar(idx) and np.issubdtype(type(idx), np.integer))


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axis is None and not keepdims:
        return np.broadcast_to(g, shape)
    if not keepdims:
        for ax in sorted(_norm_axes(axis, len(shape))):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    """Coerce ``x`` to a Tensor, matching ``like``'s dtype for scalars."""
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x), dtype=dtype)
