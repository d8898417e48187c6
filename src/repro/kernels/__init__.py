"""``repro.kernels``: the innermost compute kernels of the training hot path.

One implementation, :class:`~repro.kernels.numpy_backend.NumpyBackend`
(scipy's ``csr_matvecs`` C kernel into caller buffers and the diffusion
hop/backward chains built on it), is instantiated once here and reached
through :func:`active_backend`.  It is the only backend, so there is
nothing to select and no option, environment variable or registry.

The three functions below are the names ``benchmarks/e2e`` calls
(``set_backend("numpy")`` before timing; ``active_backend().name`` and
``available_backends()`` for the recorded environment), which is why
they are functions over a single instance and not plain module-level
kernels.

:mod:`repro.kernels.precision` holds the reduced-precision *storage*
dtypes (``store_dtype``); they do not touch the kernels.
"""

from __future__ import annotations

from repro.kernels.numpy_backend import NumpyBackend
from repro.kernels.precision import resolve_store_dtype

_BACKEND = NumpyBackend()


def available_backends() -> tuple[str, ...]:
    """Backend names this package provides."""
    return (_BACKEND.name,)


def active_backend() -> NumpyBackend:
    """The backend the autograd kernels dispatch to."""
    return _BACKEND


def set_backend(name: str) -> NumpyBackend:
    """Return the backend called ``name``; loud for anything but ``numpy``."""
    if name != _BACKEND.name:
        raise KeyError(f"unknown kernel backend {name!r}; available: "
                       f"{list(available_backends())}")
    return _BACKEND


__all__ = [
    "active_backend",
    "available_backends",
    "resolve_store_dtype",
    "set_backend",
]
