"""Devices and host<->device transfer links."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.memory import MemorySpace
from repro.profiling.clock import ManualClock


@dataclass
class TransferLink:
    """A latency/bandwidth link (PCIe, NVLink, or network NIC).

    ``time(nbytes)`` is the classic alpha-beta model: latency plus
    bytes over bandwidth.
    """

    bandwidth: float            # bytes / second
    latency: float = 0.0        # seconds per message

    def time(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        return self.latency + nbytes / self.bandwidth


class Device:
    """A compute device: a memory space plus compute/transfer rates.

    ``kind`` is ``"cpu"`` or ``"gpu"``.  The flops figure is *effective*
    throughput used by the analytic cost model, not peak datasheet flops;
    experiment harnesses calibrate an efficiency factor against real
    measured numpy step times.
    """

    def __init__(self, name: str, kind: str, memory: MemorySpace,
                 flops: float, mem_bw: float,
                 link_to_host: TransferLink | None = None,
                 clock: ManualClock | None = None):
        if kind not in ("cpu", "gpu"):
            raise ValueError(f"unknown device kind {kind!r}")
        self.name = name
        self.kind = kind
        self.memory = memory
        self.flops = flops
        self.mem_bw = mem_bw
        self.link_to_host = link_to_host
        self.clock = clock or memory.clock or ManualClock()

    def compute_time(self, flops: float, efficiency: float = 0.25) -> float:
        """Seconds to execute ``flops`` floating-point operations."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        return flops / (self.flops * efficiency)

    def copy_time(self, nbytes: int) -> float:
        """Seconds for an on-device memory copy (read + write)."""
        return 2.0 * nbytes / self.mem_bw

    def transfer_in_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` from the host into this device."""
        if self.link_to_host is None:
            return 0.0
        return self.link_to_host.time(nbytes)

    def __repr__(self) -> str:
        return f"Device({self.name!r}, kind={self.kind!r})"
