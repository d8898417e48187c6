"""Deterministic seeding helpers.

All stochastic components (data generation, parameter init, shuffling,
scheduled sampling) draw from ``numpy.random.Generator`` instances produced here, so a
single seed reproduces an entire experiment, and per-rank / per-component
streams are independent.
"""

from __future__ import annotations

import hashlib

import numpy as np

_GLOBAL_SEED: int | None = None


def seed_everything(seed: int) -> None:
    """Set the process-wide base seed used by :func:`new_rng` defaults."""
    global _GLOBAL_SEED
    _GLOBAL_SEED = int(seed)
    np.random.seed(seed % (2**32))


def global_seed() -> int:
    """Return the base seed (0 when :func:`seed_everything` was never called)."""
    return 0 if _GLOBAL_SEED is None else _GLOBAL_SEED


def derive_seed(*components: object, base: int | None = None) -> int:
    """Derive a stable 63-bit seed from a base seed plus string components.

    Independent streams (e.g. one per rank, per epoch) should derive their
    seeds from the same base with distinguishing components, never by adding
    small integers to the base (which creates correlated streams).
    """
    if base is None:
        base = global_seed()
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base)).encode())
    for c in components:
        h.update(b"\x1f")
        h.update(str(c).encode())
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


def new_rng(*components: object, base: int | None = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(*components, base=base))
