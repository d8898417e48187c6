"""``repro.api``: the declarative experiment pipeline.

The single public entry point for every training scenario in the
reproduction.  Describe a run with a :class:`RunSpec` (registry keys +
plain scalars), execute it with :func:`run`, get a uniform
:class:`RunResult` back::

    from repro.api import RunSpec, run

    result = run(RunSpec(dataset="pems-bay", model="pgt-dcrnn",
                         batching="index", scale="tiny"))
    print(result.best_val_mae, result.peak_bytes)

Components are discoverable and extensible through the registries::

    from repro.api import MODELS, list_models

    list_models()                # ['a3tgcn', 'dcrnn', 'pgt-dcrnn', ...]

    @MODELS.register("my-model")
    def _build(ctx):             # ctx: ModelContext
        return MyModel(ctx.supports, ctx.horizon, ctx.in_features)

Loaders handed to the trainers satisfy the :class:`BatchSource` protocol
(``batch_at`` / ``batches`` / ``num_snapshots`` / ``batch_size``).

Trained artifacts go online through :func:`serve` — a checkpoint path,
``RunResult`` or spec becomes a micro-batching
:class:`~repro.serving.service.ForecastService`, with server topologies
(``local`` / ``sharded``) resolved through the :data:`SERVERS`
registry.  :func:`build_gateway` assembles the
multi-tenant front door over several named deployments at once.
"""

from repro.api.registry import (
    BATCHINGS,
    DATASETS,
    MODELS,
    OPTIMIZERS,
    Registry,
    list_batchings,
    list_datasets,
    list_models,
    list_optimizers,
)
from repro.api.scales import (
    MEDIUM,
    SCALES,
    SMALL,
    TINY,
    Scale,
    get_scale,
    register_scale,
    resolve_name,
)
from repro.api import builders as _builders  # populate default registries
from repro.api.builders import LoaderBundle, ModelContext, default_in_features
from repro.api.spec import RunSpec, SHUFFLES, STRATEGIES, TRANSPORTS
from repro.api.runner import RunArtifacts, RunResult, run
from repro.api.serving import (
    SERVERS,
    build_gateway,
    list_servers,
    restore_checkpoint,
    serve,
    session_source,
)
from repro.batching.protocols import BatchSource, ensure_batch_source

__all__ = [
    "Registry",
    "MODELS",
    "BATCHINGS",
    "DATASETS",
    "OPTIMIZERS",
    "list_models",
    "list_batchings",
    "list_datasets",
    "list_optimizers",
    "Scale",
    "SCALES",
    "TINY",
    "SMALL",
    "MEDIUM",
    "get_scale",
    "register_scale",
    "resolve_name",
    "ModelContext",
    "LoaderBundle",
    "RunSpec",
    "STRATEGIES",
    "SHUFFLES",
    "TRANSPORTS",
    "RunResult",
    "RunArtifacts",
    "run",
    "SERVERS",
    "list_servers",
    "serve",
    "build_gateway",
    "session_source",
    "restore_checkpoint",
    "default_in_features",
    "BatchSource",
    "ensure_batch_source",
]
