"""Mapping ranks onto nodes and GPUs.

The paper's scaling study assigns 4 workers per Polaris node (one per
A100); 4, 8, 16, 32, 64 and 128 GPUs correspond to 1, 2, 4, 8, 16 and 32
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import NodeSpec, POLARIS_NODE


@dataclass(frozen=True)
class ClusterTopology:
    """World-size ranks laid out densely over identical nodes."""

    world_size: int
    node: NodeSpec = POLARIS_NODE

    def __post_init__(self):
        if self.world_size < 1:
            raise ValueError("world_size must be >= 1")

    @property
    def gpus_per_node(self) -> int:
        return self.node.gpus_per_node

    @property
    def num_nodes(self) -> int:
        return -(-self.world_size // self.gpus_per_node)  # ceil division

    def spans_nodes(self) -> bool:
        """True when communication must cross the Slingshot fabric."""
        return self.num_nodes > 1
