"""``RunSpec``: one frozen, serializable description of a training run.

A spec names *what* to run — dataset, model, batching mode, scale preset,
distribution strategy — entirely through registry keys and plain scalars,
so any run can be reconstructed from a dict (config file, CLI args, sweep
grid) and two specs compare equal iff they describe the same experiment.
Validation happens at construction: every key is checked against its
registry so a typo fails before any data is generated.

Reconstruction is guaranteed for keys in the default registries.  A spec
that names a custom component (an ad-hoc scale via
:func:`~repro.api.scales.resolve_name`, a model registered at runtime)
needs that registration replayed before ``from_dict`` in a fresh process
— registries are process-local.
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict, dataclass, fields

from repro.api import registry
from repro.api.scales import SCALES

#: Distribution strategies the executor understands.  ``single`` runs the
#: plain :class:`~repro.training.trainer.Trainer`; the rest map onto
#: :class:`~repro.training.ddp.DDPTrainer` strategies over the simulated
#: communicator.
STRATEGIES = ("single", "baseline-ddp", "dist-index", "generalized-index")

#: Shuffle modes accepted by the DDP sampler layer.
SHUFFLES = ("global", "local", "batch")

#: Rank-execution transports for distributed strategies: ``sim`` runs
#: ranks sequentially with simulated time and byte accounting;
#: ``thread`` runs one real thread per rank; ``process`` forks one real
#: interpreter per rank with a zero-copy shared-memory data plane.
#: All three train bitwise-identical curves.
TRANSPORTS = ("sim", "thread", "process")


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one training run.

    Attributes
    ----------
    dataset / model / batching / optimizer:
        registry keys (see ``repro.api.list_datasets()`` etc.).
    scale:
        name of a registered :class:`~repro.api.scales.Scale` preset.
    seed:
        master seed for data generation, model init and shuffling.
    lr:
        optimizer learning rate.
    strategy:
        one of :data:`STRATEGIES`; non-``single`` strategies train over
        ``world_size`` ranks.
    world_size:
        rank count (must be 1 for ``single``).
    transport:
        one of :data:`TRANSPORTS`; how distributed ranks execute
        (``sim`` = sequential + simulated cost accounting, ``thread`` =
        one real thread per rank, ``process`` = forked interpreters over
        shared memory).  Must stay ``sim`` for ``single``.
    shuffle:
        DDP shuffle mode override (``None`` = the strategy's default).
    epochs:
        override of the scale preset's epoch budget (``None`` = preset).
    faults:
        optional chaos schedule: a tuple of encoded
        :class:`~repro.runtime.faults.FaultEvent` strings (e.g.
        ``("rank_crash:step=3,rank=1",)`` — the
        :meth:`~repro.runtime.faults.FaultPlan.to_spec` form).  The
        executor injects the plan through a
        :class:`~repro.runtime.faults.FaultyTransport` and trains with
        checkpoint/restart recovery, so the run completes with the same
        curve as a fault-free run.  Requires a distributed strategy.
        An empty schedule is the same experiment as no schedule and is
        stored as ``None``.
    """

    dataset: str
    model: str = "pgt-dcrnn"
    batching: str = "index"
    scale: str = "tiny"
    seed: int = 0
    optimizer: str = "adam"
    lr: float = 0.01
    strategy: str = "single"
    world_size: int = 1
    shuffle: str | None = None
    epochs: int | None = None
    transport: str = "sim"
    faults: tuple | None = None

    # ------------------------------------------------------------------
    def __post_init__(self):
        if self.dataset not in registry.DATASETS:
            raise KeyError(f"unknown dataset {self.dataset!r}; registered: "
                           f"{registry.list_datasets()}")
        if self.model not in registry.MODELS:
            raise KeyError(f"unknown model {self.model!r}; registered: "
                           f"{registry.list_models()}")
        if self.batching not in registry.BATCHINGS:
            raise KeyError(f"unknown batching {self.batching!r}; registered: "
                           f"{registry.list_batchings()}")
        if self.optimizer not in registry.OPTIMIZERS:
            raise KeyError(f"unknown optimizer {self.optimizer!r}; "
                           f"registered: {registry.list_optimizers()}")
        if self.scale not in SCALES:
            raise KeyError(f"unknown scale {self.scale!r}; options: "
                           f"{sorted(SCALES)}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, "
                             f"got {self.strategy!r}")
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")
        if self.strategy == "single" and self.world_size != 1:
            raise ValueError("strategy 'single' requires world_size == 1; "
                             "pick a distributed strategy for multi-rank runs")
        if self.shuffle is not None and self.shuffle not in SHUFFLES:
            raise ValueError(f"shuffle must be one of {SHUFFLES} or None, "
                             f"got {self.shuffle!r}")
        if self.strategy == "single" and self.shuffle is not None:
            raise ValueError("shuffle only applies to distributed "
                             "strategies; strategy 'single' always uses "
                             "global shuffling")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}, "
                             f"got {self.transport!r}")
        if self.strategy == "single" and self.transport != "sim":
            raise ValueError("strategy 'single' has no rank execution to "
                             "distribute; transport must stay 'sim'")
        # Normalise: JSON round-trips tuples as lists, and an empty
        # schedule is no schedule.
        faults = None if self.faults is None else tuple(self.faults)
        object.__setattr__(self, "faults", faults or None)
        if self.faults is not None:
            # Validate by actually parsing the plan — a typo'd event fails
            # here, before any data is generated.
            from repro.runtime.faults import FaultPlan

            if self.strategy == "single":
                raise ValueError(
                    "fault injection rides on the DDP recovery path; pick "
                    "a distributed strategy (or drop faults)")
            plan = FaultPlan.from_spec(self.faults, seed=self.seed)
            for ev in plan.events:
                if (ev.kind in ("rank_crash", "straggler")
                        and ev.rank >= self.world_size):
                    raise ValueError(
                        f"fault event {ev.encode()!r} targets rank "
                        f"{ev.rank} but world_size is {self.world_size}")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-scalar dict; ``RunSpec.from_dict`` round-trips it."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        """Reconstruct a spec, rejecting unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise KeyError(f"unknown RunSpec fields {unknown}; "
                           f"known: {sorted(known)}")
        return cls(**d)

    def replace(self, **changes) -> "RunSpec":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)
