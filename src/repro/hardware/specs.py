"""Hardware constants for the simulated Polaris substrate.

Polaris (paper §3.1): per node one 2.8 GHz AMD EPYC Milan 7543P (32 cores),
512 GB DDR4, four NVIDIA A100-40GB, HPE Slingshot-11 interconnect
(Dragonfly, ~25 GB/s injection per NIC, ~2 us latency).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.sizes import GB

# --- device-level constants ------------------------------------------------
A100_40GB = 40 * GB
A100_FP32_FLOPS = 19.5e12          # non-tensor-core FP32 peak
A100_HBM_BW = 1.555e12             # bytes/s
EPYC_MILAN_NODE_RAM = 512 * GB
EPYC_MILAN_FLOPS = 2.2e12          # 32 cores x AVX2 FP64-ish effective
DDR4_BW = 190e9                    # bytes/s (8 channels)
PCIE_GEN4_BW = 25e9                # bytes/s effective host<->device
PCIE_LATENCY = 10e-6               # seconds per transfer

# --- interconnect / filesystem ---------------------------------------------
SLINGSHOT_BW = 25e9                # bytes/s per NIC
SLINGSHOT_LATENCY = 2e-6           # seconds
NVLINK_BW = 300e9                  # intra-node GPU<->GPU aggregate per pair
PFS_READ_BW = 10e9                 # shared Lustre, nominal
PFS_JITTER = 0.6                   # +/- fraction of nominal time (paper §5.3.1
                                   # reports 11-40 s swings due to shared I/O)


@dataclass(frozen=True)
class NodeSpec:
    """One compute node's resources."""

    name: str
    gpus_per_node: int
    gpu_memory: int
    node_ram: int
    gpu_flops: float
    cpu_flops: float
    gpu_mem_bw: float
    cpu_mem_bw: float
    h2d_bw: float
    h2d_latency: float


POLARIS_NODE = NodeSpec(
    name="polaris",
    gpus_per_node=4,
    gpu_memory=A100_40GB,
    node_ram=EPYC_MILAN_NODE_RAM,
    gpu_flops=A100_FP32_FLOPS,
    cpu_flops=EPYC_MILAN_FLOPS,
    gpu_mem_bw=A100_HBM_BW,
    cpu_mem_bw=DDR4_BW,
    h2d_bw=PCIE_GEN4_BW,
    h2d_latency=PCIE_LATENCY,
)


def polaris_host(clock=None, baseline: int = 2 * GB):
    """A Polaris node's 512 GB host RAM as a MemorySpace.

    ``baseline`` approximates the resident interpreter + framework +
    OS share that psutil measurements include.
    """
    from repro.hardware.memory import MemorySpace
    return MemorySpace("polaris:ram", capacity=POLARIS_NODE.node_ram,
                       clock=clock, baseline=baseline)
