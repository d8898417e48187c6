"""Latency-bandwidth (alpha-beta) communication and I/O cost models.

These models produce the *simulated* runtimes of the scaling experiments.
Collectives follow the standard ring-algorithm formulas; the shared
parallel filesystem adds the jitter the paper observed (preprocessing times
"ranging from 11 seconds to 32 seconds ... regardless of the number of
workers", §5.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.hardware.specs import (
    NVLINK_BW,
    PFS_JITTER,
    PFS_READ_BW,
    SLINGSHOT_BW,
    SLINGSHOT_LATENCY,
)
from repro.utils.seeding import new_rng


@dataclass
class CommCostModel:
    """Time models for the collective operations DDP training issues.

    Intra-node traffic uses NVLink; anything spanning nodes uses the
    Slingshot NIC.  ``fabric_aggregate_bw`` caps the *total* simultaneous
    data-plane traffic — on-demand batch fetches from all workers contend
    for the same bisection/PFS bandwidth, which is why baseline DDP's
    communication time barely improves with more workers (Fig. 7, left).
    """

    topology: ClusterTopology
    alpha: float = SLINGSHOT_LATENCY
    beta_inter: float = SLINGSHOT_BW
    beta_intra: float = NVLINK_BW
    fabric_aggregate_bw: float = 4 * SLINGSHOT_BW

    def _beta(self) -> float:
        return self.beta_inter if self.topology.spans_nodes() else self.beta_intra

    def _alpha(self) -> float:
        # NVLink latency is ~2 orders smaller; modelled as alpha/10.
        return self.alpha if self.topology.spans_nodes() else self.alpha / 10.0

    def allreduce_time(self, nbytes: int) -> float:
        """Ring allreduce: ``2(p-1) alpha + 2 (p-1)/p n/beta``."""
        p = self.topology.world_size
        if p == 1 or nbytes == 0:
            return 0.0
        return (2 * (p - 1) * self._alpha()
                + 2 * (p - 1) / p * nbytes / self._beta())

    def broadcast_time(self, nbytes: int) -> float:
        """Binomial-tree broadcast: ``ceil(log2 p) (alpha + n/beta)``."""
        p = self.topology.world_size
        if p == 1 or nbytes == 0:
            return 0.0
        rounds = int(np.ceil(np.log2(p)))
        return rounds * (self._alpha() + nbytes / self._beta())

    def contended_fetch_time(self, total_bytes_all_ranks: int,
                             messages: int = 1) -> float:
        """On-demand data-plane fetches issued by all ranks at once.

        The aggregate volume shares ``fabric_aggregate_bw``; per-message
        latency is charged once per message per rank.
        """
        if total_bytes_all_ranks < 0:
            raise ValueError("bytes must be non-negative")
        return (messages * self.alpha
                + total_bytes_all_ranks / self.fabric_aggregate_bw)


@dataclass
class PFSModel:
    """Shared parallel-filesystem reads with load jitter."""

    read_bw: float = PFS_READ_BW
    jitter: float = PFS_JITTER

    def read_time(self, nbytes: int, *, seed: int | str = 0,
                  parallel_readers: int = 1) -> float:
        """Seconds to read ``nbytes``; jitter is deterministic in ``seed``.

        Reads from many ranks of the same file are broadcast-friendly
        (collective read), so ``parallel_readers`` only mildly degrades
        effective bandwidth (log contention).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        rng = new_rng("pfs", seed)
        base = nbytes / self.read_bw
        contention = 1.0 + 0.15 * np.log2(max(parallel_readers, 1))
        factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base * contention * max(factor, 0.05)
