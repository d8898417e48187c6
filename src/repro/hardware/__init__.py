"""Simulated hardware: memory spaces, devices and transfer links.

The paper's results are peak-memory and runtime numbers on ALCF Polaris
(4x NVIDIA A100-40GB + 512 GB DDR4 per node).  We model the relevant
hardware behaviour: byte-exact memory accounting with OOM faults, and
latency/bandwidth cost models for host-device transfers.
:func:`usable_cores` is the one exception — it introspects the machine
the code is *actually* running on, for transport pool sizing and the
end-to-end benchmark's machine report.
"""

from repro.hardware.cores import usable_cores
from repro.hardware.memory import Allocation, MemoryEvent, MemorySpace
from repro.hardware.device import Device, TransferLink
from repro.hardware.specs import (
    A100_40GB,
    EPYC_MILAN_NODE_RAM,
    PCIE_GEN4_BW,
    POLARIS_NODE,
    NodeSpec,
    polaris_gpu,
    polaris_host,
)

__all__ = [
    "MemorySpace",
    "MemoryEvent",
    "Allocation",
    "Device",
    "TransferLink",
    "NodeSpec",
    "POLARIS_NODE",
    "A100_40GB",
    "EPYC_MILAN_NODE_RAM",
    "PCIE_GEN4_BW",
    "polaris_gpu",
    "polaris_host",
    "usable_cores",
]
