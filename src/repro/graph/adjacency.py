"""Building weighted adjacency matrices from sensor locations.

The paper (§2.1) encodes spatial structure by loading sensor IDs with
latitude/longitude and applying "a simple transformation ... to generate a
weighted matrix".  The standard transformation — used by DCRNN and PGT for
the PeMS family — is a thresholded Gaussian kernel over pairwise road-network
distances:

    W[i, j] = exp(-dist(i, j)^2 / sigma^2)   if >= threshold else 0

We reproduce that construction, plus a generator of synthetic sensor
networks shaped like freeway corridors (PeMS sensors lie along highways, so
their graphs are locally linear with occasional interchange shortcuts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import ShapeError
from repro.utils.seeding import new_rng


@dataclass
class SensorGraph:
    """A static sensor graph: coordinates plus weighted adjacency.

    Attributes
    ----------
    coords:
        ``[num_nodes, 2]`` planar sensor positions (km).
    weights:
        CSR weighted adjacency (directed; ``weights[i, j]`` is the strength
        of the edge from node *i* to node *j*).
    """

    coords: np.ndarray
    weights: sp.csr_matrix
    name: str = "sensor-graph"

    def __post_init__(self):
        n = self.coords.shape[0]
        if self.weights.shape != (n, n):
            raise ShapeError(
                f"adjacency {self.weights.shape} does not match {n} sensors")

    @property
    def num_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def num_edges(self) -> int:
        return int(self.weights.nnz)

    def density(self) -> float:
        n = self.num_nodes
        return self.num_edges / float(n * n)


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix ``[n, n]`` from planar coordinates."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(-1))


def random_sensor_network(num_nodes: int, *, seed: int | str = 0,
                          num_corridors: int | None = None,
                          spacing_km: float = 0.8,
                          interchange_prob: float = 0.05,
                          threshold: float = 0.1) -> SensorGraph:
    """Generate a synthetic freeway-style sensor network.

    Sensors are laid out along ``num_corridors`` gently-curving corridors
    with roughly uniform spacing; corridors cross occasionally, creating
    interchange shortcuts.  The adjacency is the thresholded Gaussian kernel
    of the resulting positions — the same transform real PeMS pipelines use.

    The construction is fully deterministic in ``seed``.
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 sensors")
    rng = new_rng("graph", "sensors", num_nodes, seed)
    if num_corridors is None:
        num_corridors = max(1, int(round(np.sqrt(num_nodes) / 3)))
    per = np.full(num_corridors, num_nodes // num_corridors)
    per[: num_nodes % num_corridors] += 1

    coords_list = []
    for c in range(num_corridors):
        n_c = int(per[c])
        origin = rng.uniform(0, spacing_km * num_nodes / num_corridors, size=2)
        heading = rng.uniform(0, 2 * np.pi)
        # Random-walk heading produces gently curving freeways.
        turns = rng.normal(0, 0.08, size=n_c).cumsum() + heading
        steps = np.stack([np.cos(turns), np.sin(turns)], axis=1) * spacing_km
        pts = origin + np.vstack([np.zeros(2), steps[:-1]]).cumsum(axis=0)
        coords_list.append(pts)
    coords = np.concatenate(coords_list, axis=0)[:num_nodes]

    dist = pairwise_distances(coords)
    # Local kernel bandwidth: typical nearest-neighbour spacing, so each
    # sensor connects to a handful of upstream/downstream neighbours.
    near = np.partition(dist + np.eye(num_nodes) * 1e9, 1, axis=1)[:, 1]
    sigma = float(np.median(near)) * 2.0
    w = np.exp(-(dist / sigma) ** 2)
    w[w < threshold] = 0.0

    # Sparse random interchanges between corridors keep the graph connected
    # even when corridors never physically cross.
    n_extra = max(1, int(interchange_prob * num_nodes))
    src = rng.integers(0, num_nodes, size=n_extra)
    dst = rng.integers(0, num_nodes, size=n_extra)
    w[src, dst] = np.maximum(w[src, dst], threshold)
    w[dst, src] = np.maximum(w[dst, src], threshold)
    np.fill_diagonal(w, 1.0)
    return SensorGraph(coords=coords, weights=sp.csr_matrix(w),
                       name=f"synthetic-{num_nodes}")
