"""PGT-I reproduction: memory-efficient distributed training for ST-GNNs.

This package reproduces *PGT-I: Scaling Spatiotemporal GNNs with
Memory-Efficient Distributed Training* (SC 2025) as a self-contained Python
library.  It provides:

- ``repro.autograd`` / ``repro.nn`` / ``repro.optim``: a NumPy reverse-mode
  automatic-differentiation engine and neural-network library standing in for
  PyTorch; an optimizer owns its parameters' flat storage.
- ``repro.graph``: sensor-graph construction and diffusion supports.
- ``repro.datasets``: the paper's dataset catalog plus synthetic generators.
- ``repro.preprocessing``: the standard sliding-window pipeline (Algorithm 1)
  and the paper's index-batching datasets, with a byte-exact memory model.
- ``repro.hardware`` / ``repro.cluster``: a simulated HPC substrate (memory
  spaces, node specs, interconnect cost models) modeled on ALCF Polaris.
- ``repro.runtime``: the distributed execution layer — pluggable transports
  (simulated ranks or forked processes), one collectives
  implementation and the ``ProcessGroup`` facade.
- ``repro.models``: DCRNN, PGT-DCRNN, TGCN, A3T-GCN and ST-LLM.
- ``repro.training``: single-device and DDP trainers implementing
  index-batching, GPU-index-batching, distributed-index-batching and
  generalized-distributed-index-batching.
- ``repro.experiments``: the claims ledger — every paper table and figure
  as one row, its numbers beside the paper's with the bound each holds.
- ``repro.api``: the declarative pipeline tying it all together —
  registries, ``RunSpec`` and the ``run(spec)`` executor.

The quickest way in::

    import repro

    result = repro.api.run(repro.RunSpec(dataset="pems-bay",
                                         model="pgt-dcrnn",
                                         batching="index", scale="tiny"))
"""

from repro._version import __version__

__all__ = ["__version__", "api", "RunSpec", "RunResult", "run"]

_API_ATTRS = {"api", "RunSpec", "RunResult", "run"}


def __getattr__(name):
    """Lazy-load the api subsystem so ``import repro`` stays lightweight."""
    if name in _API_ATTRS:
        import repro.api as api
        if name == "api":
            return api
        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
