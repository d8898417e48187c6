"""Sensor-graph construction, normalization and diffusion supports."""

from repro.graph.adjacency import (
    SensorGraph,
    random_sensor_network,
)
from repro.graph.supports import (
    dual_random_walk_supports,
    random_walk_matrix,
    symmetric_normalized_adjacency,
)
from repro.graph.partition import partition_graph

__all__ = [
    "SensorGraph",
    "random_sensor_network",
    "random_walk_matrix",
    "dual_random_walk_supports",
    "symmetric_normalized_adjacency",
    "partition_graph",
]
