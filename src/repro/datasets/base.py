"""In-memory representation of a raw spatiotemporal dataset."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.catalog import DatasetSpec
from repro.graph.adjacency import SensorGraph
from repro.utils.errors import ShapeError


@dataclass
class SpatioTemporalDataset:
    """A raw (pre-preprocessing) dataset: node signals + static graph.

    Attributes
    ----------
    signals:
        ``[entries, nodes, raw_features]`` array — the contents of the
        source file, before the time-of-day channel or any windowing.
        Either an ndarray or a read-only array-like over a file
        (:class:`repro.datasets.io.StoredArray`).  Consumers may rely on
        ``shape / dtype / ndim / nbytes``, ``len()``, leading-axis slices
        ``signals[first:last]`` that return ordinary ndarrays, and NumPy
        conversion (``np.asarray`` / ``np.array(..., dtype=)``, which
        reads the whole array); ndarray methods are not part of the
        contract.
    graph:
        the static sensor graph (paper §2.1's "static graph with
        dynamic/temporal signal").
    spec:
        the catalog entry this dataset instantiates.  When the dataset is a
        scaled-down synthetic stand-in, ``spec`` still carries the *real*
        shapes (used by the memory model), while ``signals`` carries the
        working shapes.
    timestamps:
        ``[entries]`` minutes-since-midnight-of-day-0, used to derive the
        time-of-day feature.
    """

    signals: np.ndarray
    graph: SensorGraph
    spec: DatasetSpec
    timestamps: np.ndarray

    def __post_init__(self):
        if self.signals.ndim != 3:
            raise ShapeError(
                f"signals must be [entries, nodes, features], got {self.signals.shape}")
        if self.signals.shape[1] != self.graph.num_nodes:
            raise ShapeError(
                f"signals have {self.signals.shape[1]} nodes but graph has "
                f"{self.graph.num_nodes}")
        if len(self.timestamps) != self.signals.shape[0]:
            raise ShapeError("timestamps must align with entries")

    @property
    def num_entries(self) -> int:
        return self.signals.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.signals.shape[1]

    @property
    def raw_features(self) -> int:
        return self.signals.shape[2]

    @property
    def nbytes(self) -> int:
        return self.signals.nbytes

    def time_of_day(self) -> np.ndarray:
        """Fraction-of-day in ``[0, 1)`` per entry (stage 1 of Fig. 3)."""
        return (self.timestamps % (24 * 60)) / (24.0 * 60.0)

    def with_time_feature(self) -> np.ndarray:
        """Return ``[entries, nodes, raw_features + 1]`` with time-of-day.

        This materialises a copy (it is the first memory-growth stage the
        paper identifies, and reads file-backed ``signals`` whole); the
        standard pipeline applies it before duplicating windows,
        index-batching writes the same values block by block into its one
        stored array instead.
        """
        tod = self.time_of_day().astype(self.signals.dtype)
        tod_channel = np.broadcast_to(tod[:, None, None],
                                      (self.num_entries, self.num_nodes, 1))
        return np.concatenate([self.signals, tod_channel], axis=2)
