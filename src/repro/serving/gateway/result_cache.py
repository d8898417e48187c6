"""TTL result cache for forecast responses.

A forecast is a pure function of ``(model version, input window)``: the
serving stack runs deterministic ``no_grad`` NumPy forwards, so two
requests carrying bitwise-identical windows against the same deployment
version must produce bitwise-identical predictions.  The cache exploits
that purity — entries are keyed on ``(deployment, version, window
hash)`` and a hit returns a copy of the stored prediction array,
**bitwise equal** to what recomputation would have produced (the gateway
tests pin this).

One digest, :func:`window_fingerprint`, serves both ends: it keys the
request's window and it is the integrity check over the stored forecast.
Each request pays it twice.  An admitted request is keyed at submit and
its forecast digested at :meth:`ResultCache.put`; a hit is keyed at
submit and its stored bytes verified before they are served.

Time is the gateway's clock (simulated or wall), so TTL expiry is exactly
as reproducible as the request schedule that drives it.  Capacity is
bounded: insertion past ``max_entries`` evicts the least-recently-used
entry first.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np


def window_fingerprint(window: np.ndarray) -> str:
    """A collision-resistant digest of one model-input window.

    blake2b-128 over a header — the dtype's array-protocol string
    (``'<f4'``: kind, item size and byte order) and the shape — then the
    raw bytes in C order, so two windows collide only if they are bitwise
    identical arrays of the same dtype and shape.  The header never
    formats ``str(dtype)``: on NumPy 2.x that builds the name in Python
    and costs several times the hash of a small window.
    """
    window = np.ascontiguousarray(window)
    h = hashlib.blake2b(f"{window.dtype.str}{window.shape}".encode(),
                        digest_size=16)
    h.update(window.tobytes())
    return h.hexdigest()


def cache_key(deployment: str, version: str, window: np.ndarray) -> tuple:
    """The full cache key: deployment identity + window."""
    return (str(deployment), str(version), window_fingerprint(window))


@dataclass
class CacheStats:
    """Aggregate cache accounting."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    expirations: int = 0
    evictions: int = 0
    invalidations: int = 0
    stale_hits: int = 0
    corruptions_detected: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "insertions": self.insertions,
                "expirations": self.expirations,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "stale_hits": self.stale_hits,
                "corruptions_detected": self.corruptions_detected,
                "hit_rate": self.hit_rate}


@dataclass
class _Entry:
    predictions: np.ndarray
    expires: float
    deployment: str = ""
    fingerprint: str = ""       # digest of the stored array at put time
    expired_noted: bool = False  # expiry counted once in stats


class ResultCache:
    """LRU + TTL cache of completed forecasts.

    Parameters
    ----------
    ttl:
        seconds (on the supplied clock) an entry stays valid.
    max_entries:
        LRU capacity bound; inserting past it evicts the coldest entry.
    clock:
        the gateway's clock — simulated or wall, shared with the queues
        so expiry composes with the request schedule.
    """

    def __init__(self, *, ttl: float = 60.0, max_entries: int = 1024,
                 clock: Callable[[], float] | None = None):
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        import time
        self.ttl = float(ttl)
        self.max_entries = int(max_entries)
        self.clock = clock if clock is not None else time.perf_counter
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, key: tuple) -> np.ndarray | None:
        """The cached predictions for ``key`` (an owned copy), or ``None``.

        Expired entries miss (counted once per entry) but stay resident
        until LRU eviction or :meth:`invalidate` — they are the
        degradation ladder's stale inventory, reachable via
        :meth:`get_stale` when a deployment goes down.  A live hit
        refreshes LRU recency but never the TTL — an entry's lifetime is
        bounded by its insertion time, so a hot key cannot serve
        arbitrarily stale data as *fresh*.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if self.clock() >= entry.expires:
            if not entry.expired_noted:
                entry.expired_noted = True
                self.stats.expirations += 1
            self.stats.misses += 1
            return None
        if not self._verify(key, entry):
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.predictions.copy()

    def get_stale(self, key: tuple) -> np.ndarray | None:
        """The entry for ``key`` ignoring TTL — the degradation path.

        A stale answer is still keyed on the exact window fingerprint and
        still integrity-checked against its stored digest, so degraded
        responses are bitwise-equal to the forecast that was cached; only
        freshness is sacrificed.  Does not refresh LRU recency.
        """
        entry = self._entries.get(key)
        if entry is None or not self._verify(key, entry):
            return None
        self.stats.stale_hits += 1
        return entry.predictions.copy()

    def _verify(self, key: tuple, entry: _Entry) -> bool:
        """Integrity check: drop (never serve) an entry whose bytes no
        longer match the digest recorded at insertion."""
        if window_fingerprint(entry.predictions) == entry.fingerprint:
            return True
        del self._entries[key]
        self.stats.corruptions_detected += 1
        return False

    def corrupt(self, key: tuple) -> bool:
        """Chaos hook (``store_corruption`` fault events): flip one byte
        of the stored entry in place; returns whether ``key`` was
        resident.  The integrity check catches it on the next read."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        flat = entry.predictions.view(np.uint8).reshape(-1)
        flat[0] ^= 0xFF
        return True

    def put(self, key: tuple, predictions: np.ndarray) -> None:
        """Store one completed forecast (an owned copy) under ``key``."""
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        stored = np.ascontiguousarray(predictions).copy()
        self._entries[key] = _Entry(
            predictions=stored, expires=self.clock() + self.ttl,
            deployment=str(key[0]), fingerprint=window_fingerprint(stored))
        self.stats.insertions += 1

    def invalidate(self, deployment: str | None = None) -> int:
        """Drop entries (all, or one deployment's); returns the count.

        Version-keyed entries can never serve a swapped deployment's new
        traffic anyway — invalidation just releases their memory eagerly.
        """
        if deployment is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            stale = [k for k, e in self._entries.items()
                     if e.deployment == str(deployment)]
            for k in stale:
                del self._entries[k]
            dropped = len(stale)
        self.stats.invalidations += dropped
        return dropped
