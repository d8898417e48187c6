"""``repro.kernels``: pluggable compute backends for the training hot path.

Profiling after the PR-2 fusion work shows the remaining step time is
per-op Python dispatch inside the diffusion-conv CSR recurrence and the
GRU cells.  This package factors those innermost kernels behind a tiny
registry so they can be swapped wholesale:

- the **numpy** backend (always present) holds the exact code the autograd
  layer ran before this package existed — same scipy C kernel, same
  buffer discipline — so selecting it is byte-for-byte the status quo.
- the **numba** backend (auto-detected at import) compiles the same math
  into fused, node-parallel loops: one kernel call per diffusion-hop
  chain and per GRU gate/blend block instead of a dispatch per op.
  Parity with the numpy backend is gated at 1e-6 by the hypothesis
  property tests.

Selection, in priority order:

1. explicitly: :func:`set_backend` / :func:`use_backend`, or
   ``RunSpec(backend=...)`` which the runner applies around training;
2. the ``REPRO_KERNEL_BACKEND`` environment variable at import;
3. the default: ``numpy`` (compiled backends are opt-in so fixed-seed
   curves stay bitwise reproducible on every machine).

``available_backends()`` reports what this interpreter can actually run.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.kernels.numpy_backend import NumpyBackend
from repro.kernels.precision import resolve_store_dtype

#: Names this package knows how to build, available or not — lets error
#: messages distinguish "not installed here" from "no such backend".
KNOWN_BACKENDS = ("numpy", "numba")

_BACKENDS: dict[str, object] = {}


def register_backend(backend) -> None:
    """Add a backend instance to the registry (keyed by ``backend.name``)."""
    _BACKENDS[backend.name] = backend


register_backend(NumpyBackend())

try:  # numba is optional; the numpy fallback is always complete
    from repro.kernels.numba_backend import NumbaBackend

    register_backend(NumbaBackend())
except ImportError:
    NumbaBackend = None


def available_backends() -> tuple[str, ...]:
    """Backend names importable in this interpreter, numpy first."""
    return tuple(_BACKENDS)


def get_backend(name: str):
    """The registered backend called ``name``; loud when it is missing."""
    backend = _BACKENDS.get(name)
    if backend is None:
        if name in KNOWN_BACKENDS:
            raise KeyError(
                f"kernel backend {name!r} is known but not available in "
                f"this interpreter (is {name} installed?); available: "
                f"{list(available_backends())}")
        raise KeyError(f"unknown kernel backend {name!r}; known: "
                       f"{list(KNOWN_BACKENDS)}")
    return backend


def _resolve_default():
    """Initial active backend: ``REPRO_KERNEL_BACKEND`` or numpy."""
    env = os.environ.get("REPRO_KERNEL_BACKEND", "").strip()
    if env and env != "auto":
        return get_backend(env)
    return _BACKENDS["numpy"]


_ACTIVE = _resolve_default()


def active_backend():
    """The backend the autograd kernels currently dispatch to."""
    return _ACTIVE


def set_backend(name: str):
    """Switch the process-wide active backend; returns it."""
    global _ACTIVE
    _ACTIVE = get_backend(name)
    return _ACTIVE


@contextmanager
def use_backend(name: str | None):
    """Scoped backend selection; ``None``/``"auto"`` keeps the current one.

    This is what the runner wraps training in: ``RunSpec(backend="numba")``
    trains compiled, and the previous selection is restored on exit even
    when training raises.
    """
    global _ACTIVE
    if name is None or name == "auto":
        yield _ACTIVE
        return
    previous = _ACTIVE
    _ACTIVE = get_backend(name)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


__all__ = [
    "KNOWN_BACKENDS",
    "available_backends",
    "active_backend",
    "get_backend",
    "register_backend",
    "resolve_store_dtype",
    "set_backend",
    "use_backend",
]
