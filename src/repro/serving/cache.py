"""Per-sensor sliding-window feature store for streaming observations.

Online serving receives one observation row per sampling interval (all
sensors' raw readings at one timestamp) and must materialise model input
windows ``[horizon, nodes, features]`` on demand.  The store keeps a ring
buffer of the last ``capacity`` rows **already augmented and
standardized** — the time-of-day channel is appended and the *training*
scaler applied once at ingest, never refitted — so window materialisation
is two slice copies and ingest touches each value exactly once.

The ingest arithmetic mirrors the offline index-batching pipeline
step-for-step (augment in float64, standardize in float64, round once to
the storage dtype), so a store fed the training stream reproduces
:class:`~repro.preprocessing.index_batching.IndexDataset` windows
bitwise — the cache-correctness test asserts exact equality.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.preprocessing.scaler import StandardScaler
from repro.utils.errors import ShapeError

MINUTES_PER_DAY = 24 * 60


def has_time_feature(dataset: Any, in_features: int | None = None) -> bool:
    """The one time-of-day rule.  A traffic dataset's inputs carry a
    fraction-of-day channel, as the offline pipelines append it; without
    the dataset, a two-channel input is read as signal + time of day, the
    only catalog shape with two channels."""
    if dataset is not None:
        return dataset.spec.domain == "traffic"
    return in_features == 2


class FeatureStore:
    """Ring buffer of standardized observation rows.

    Parameters
    ----------
    scaler:
        the *fitted* training scaler; ingest applies it, never refits.
    num_nodes / raw_features:
        shape of one raw observation row.
    capacity:
        rows retained; must cover at least one model horizon.
    add_time_feature:
        append the fraction-of-day channel (traffic datasets do).
    dtype:
        storage dtype (float32 matches the training pipeline's
        ``store_dtype``).
    """

    def __init__(self, scaler: StandardScaler, *, num_nodes: int,
                 raw_features: int, capacity: int,
                 add_time_feature: bool = True, dtype=np.float32):
        if not scaler.fitted:
            raise ValueError("FeatureStore needs a fitted scaler; serving "
                             "never refits standardization statistics")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.scaler = scaler
        self.num_nodes = int(num_nodes)
        self.raw_features = int(raw_features)
        self.add_time_feature = bool(add_time_feature)
        self.num_features = self.raw_features + int(self.add_time_feature)
        if len(scaler.mean_) != self.num_features:
            raise ShapeError(
                f"scaler covers {len(scaler.mean_)} features but the store "
                f"row has {self.num_features} (raw {self.raw_features}"
                f"{' + time-of-day' if self.add_time_feature else ''})")
        self.capacity = int(capacity)
        self.dtype = np.dtype(dtype)
        self._ring = np.empty((self.capacity, self.num_nodes,
                               self.num_features), self.dtype)
        # Augment + standardize run in float64 (exactly like offline
        # preprocessing); the single rounding happens on the ring write.
        self._row64 = np.empty((self.num_nodes, self.num_features), np.float64)
        self._head = 0          # next write slot
        self._count = 0         # rows ingested (saturates at capacity)
        self.total_ingested = 0

    @classmethod
    def for_dataset(cls, dataset, scaler: StandardScaler, *,
                    capacity: int, dtype=np.float32) -> "FeatureStore":
        """A store shaped for one catalog dataset (:func:`has_time_feature`
        decides the time-of-day channel)."""
        return cls(scaler, num_nodes=dataset.num_nodes,
                   raw_features=dataset.raw_features, capacity=capacity,
                   add_time_feature=has_time_feature(dataset), dtype=dtype)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Rows currently available (≤ capacity)."""
        return self._count

    def ingest(self, values: np.ndarray, timestamp_minutes: float) -> None:
        """Append one observation row.

        ``values`` is ``[num_nodes, raw_features]`` raw readings;
        ``timestamp_minutes`` is minutes since midnight of day 0 (the
        dataset timestamp convention) and feeds the time-of-day channel.
        A non-finite reading or timestamp raises ``ValueError`` before the
        ring is written: stored, it would turn every window over the next
        ``horizon`` rows into ``nan`` forecasts.
        """
        values = np.asarray(values)
        if values.shape != (self.num_nodes, self.raw_features):
            raise ShapeError(
                f"expected [{self.num_nodes}, {self.raw_features}] raw row, "
                f"got {values.shape}")
        row = self._row64
        row[:, : self.raw_features] = values
        if self.add_time_feature:
            row[:, self.raw_features] = \
                (float(timestamp_minutes) % MINUTES_PER_DAY) / MINUTES_PER_DAY
        if not np.isfinite(row).all():
            raise ValueError("observation row holds non-finite values; "
                             "encode a missing reading as 0, as PeMS does")
        self.scaler.transform(row, out=row)
        np.copyto(self._ring[self._head], row, casting="same_kind")
        self._head = (self._head + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)
        self.total_ingested += 1

    def ingest_block(self, values: np.ndarray,
                     timestamps_minutes: np.ndarray) -> None:
        """Warm the store with ``[rows, num_nodes, raw_features]`` history."""
        values = np.asarray(values)
        timestamps = np.asarray(timestamps_minutes)
        if len(values) != len(timestamps):
            raise ShapeError("values and timestamps must align")
        for row, ts in zip(values, timestamps):
            self.ingest(row, float(ts))

    def window(self, horizon: int, out: np.ndarray | None = None) -> np.ndarray:
        """The latest ``horizon`` rows, oldest first:
        ``[horizon, num_nodes, num_features]``.

        Pass a preallocated ``out`` to make materialisation allocation-free
        (the serving path hands a slice of its staging buffer).
        """
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if horizon > self._count:
            raise RuntimeError(
                f"store holds {self._count} rows, cannot materialise a "
                f"window of {horizon}; ingest more history first")
        shape = (horizon, self.num_nodes, self.num_features)
        if out is None:
            out = np.empty(shape, self.dtype)
        elif out.shape != shape:
            raise ShapeError(f"window out buffer must be {shape}, "
                             f"got {out.shape}")
        start = (self._head - horizon) % self.capacity
        first = min(horizon, self.capacity - start)
        out[:first] = self._ring[start: start + first]
        if first < horizon:
            out[first:] = self._ring[: horizon - first]
        return out

    @property
    def resident_nbytes(self) -> int:
        return self._ring.nbytes + self._row64.nbytes
