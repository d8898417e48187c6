"""First-order optimizers over one flat parameter and gradient store.

An :class:`Optimizer` owns two flat arrays: ``data`` holds every
parameter (each ``p.data`` is rebound as a view into it) and ``grad``
is where backward lands their gradients (see :meth:`Optimizer.bind`).
``SGD``/``Adam`` then step once over the whole model with a handful of
in-place ufunc calls, through persistent flat scratch.  Elementwise ops
give the same bits on a slice of a flat array as on a separate array,
so the in-place formulations reproduce the original per-parameter
allocating code exactly.  A slot that no backward reached reads 0, and
both optimizers map a zero gradient on zero state to no change at all.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.nn.module import Parameter


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    DCRNN training uses gradient clipping (the reference implementation clips
    at norm 5).  Returns the pre-clip norm.

    The per-tensor sum of squares comes from ``np.dot`` on the raveled
    gradient (BLAS, no temporaries).  If that reduction overflows the
    gradient dtype (exploding float32 gradients — exactly when clipping
    matters), the affected tensor falls back to the exact float64
    accumulation; the scalar total is always accumulated in float64.
    """
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        v = g.reshape(-1)
        sq = float(np.dot(v, v))
        if not math.isfinite(sq):
            sq = float(np.sum(v.astype(np.float64) ** 2))
        total += sq
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


class Optimizer:
    """Base optimizer: the parameter list, its flat storage and the LR.

    ``state`` maps each slot name of the checkpoint format to the flat
    array behind it; :meth:`views` splits any such array per parameter.
    """

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        dtypes = sorted({str(p.data.dtype) for p in self.params})
        if len(dtypes) > 1:
            raise ValueError(f"optimizer parameters must share one dtype, "
                             f"got {dtypes}")
        self.lr = float(lr)
        self.step_count = 0
        self._offsets = np.cumsum([0] + [p.data.size for p in self.params])
        self.data = np.concatenate([p.data.reshape(-1) for p in self.params])
        for p, view in zip(self.params, self.views(self.data)):
            p.data = view
        self.grad = np.zeros_like(self.data)
        self._scratch = np.empty_like(self.data)
        self.state: dict[str, np.ndarray] = {}
        self.bind(self.grad)

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a flat array laid out like ``data``."""
        o = self._offsets
        return [flat[o[i]:o[i + 1]].reshape(p.data.shape)
                for i, p in enumerate(self.params)]

    def bind(self, flat: np.ndarray, params: list[Parameter] | None = None
             ) -> None:
        """Zero ``flat`` and make it where ``params``' next gradients land.

        ``params`` defaults to the optimizer's own; a rank replica passes
        its parallel list.  Each parameter's gradient is reset, so the
        next backward copies into its slot on first touch and adds after.
        """
        flat.fill(0.0)
        for p, slot in zip(params or self.params, self.views(flat)):
            p.grad_slot = slot
            p.grad = None

    def zero_grad(self) -> None:
        """Reset gradients: the next backward lands in ``self.grad``."""
        self.bind(self.grad)

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01,
                 momentum: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        if momentum:
            self.velocity = np.zeros_like(self.data)
            self.state["sgd_v"] = self.velocity

    def step(self) -> None:
        self.step_count += 1
        g = self.grad
        if self.momentum:
            self.velocity *= self.momentum
            self.velocity += g
            g = self.velocity
        np.multiply(g, self.lr, out=self._scratch)
        self.data -= self._scratch


class Adam(Optimizer):
    """Adam with bias correction (the paper's default optimizer)."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.state.update(adam_m=self.m, adam_v=self.v)
        self._scratch2 = np.empty_like(self.data)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        g, m, v = self.grad, self.m, self.v
        s, s2 = self._scratch, self._scratch2
        # m = b1*m + (1-b1)*g ; v = b2*v + (1-b2)*g^2, all in place.
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - self.beta2
        v += s
        # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), staged in s/s2 with
        # the exact operation order of the allocating formulation.
        np.divide(m, bc1, out=s)
        s *= self.lr
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s /= s2
        self.data -= s
