"""Module/Parameter abstractions (the analogue of ``torch.nn.Module``)."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A Tensor that is registered as a trainable model parameter."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class providing parameter registration and traversal.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; these are discovered automatically by ``parameters()`` /
    ``named_parameters()``, also inside list or tuple attributes.
    ``training`` toggles behaviours such as DCRNN's scheduled sampling.
    """

    def __init__(self):
        self.training: bool = True

    # -- traversal -----------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        seen: set[int] = set()
        yield from self._named_parameters(prefix, seen)

    def _named_parameters(self, prefix: str, seen: set[int]):
        for key, value in vars(self).items():
            if isinstance(value, Parameter):
                if id(value) not in seen:
                    seen.add(id(value))
                    yield (f"{prefix}{key}", value)
            elif isinstance(value, Module):
                yield from value._named_parameters(f"{prefix}{key}.", seen)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._named_parameters(f"{prefix}{key}.{i}.", seen)
                    elif isinstance(item, Parameter) and id(item) not in seen:
                        seen.add(id(item))
                        yield (f"{prefix}{key}.{i}", item)

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- state ----------------------------------------------------------
    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, arr in state.items():
            p = params[name]
            if p.data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{p.data.shape} vs {arr.shape}")
            # In place: an optimizer's parameters are views of its flat
            # store, and rebinding ``p.data`` would detach them from it.
            p.data[...] = arr

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- call -------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def assert_inference_mode(module: Module) -> None:
    """Raise unless ``module`` is fully in inference mode.

    Inference mode means gradient recording is off (``no_grad``) *and*
    every submodule has ``training=False`` (``module.eval()``), so a
    forward pass can neither extend the autograd graph nor trip
    training-only behaviour (DCRNN's scheduled sampling).  Evaluation
    loops and the serving path call this before forwarding.
    """
    from repro.autograd.grad_mode import is_grad_enabled
    if is_grad_enabled():
        raise RuntimeError(
            "inference requires no_grad(): gradient recording is enabled, "
            "so this forward pass would silently extend the autograd graph")
    stale = [type(m).__name__ for m in module.modules() if m.training]
    if stale:
        raise RuntimeError(
            f"inference requires eval mode, but {len(stale)} module(s) still "
            f"have training=True (e.g. {stale[0]}); call model.eval() first")
