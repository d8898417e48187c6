"""Table 2: one epoch of the reference DCRNN vs PGT-DCRNN on PeMS-All-LA
(batch size 32): runtime from the performance model, host memory from the
pipeline replays, device memory from the activation-residency model."""

from __future__ import annotations

from repro.datasets import get_spec
from repro.hardware.specs import polaris_host
from repro.preprocessing.memory_model import (
    simulate_dcrnn_loader,
    simulate_standard_pipeline,
)
from repro.training.perfmodel import (
    EFFICIENCY_PGT_SMALL,
    TrainingPerfModel,
    dcrnn_perf,
    pgt_dcrnn_perf,
)
from repro.utils.sizes import GB

# Activation-residency multipliers over the base estimate (which keeps one
# hidden state per (batch, step, node)).  PGT-DCRNN additionally stores the
# concatenated diffusion-hop features of its single cell (~3x); the
# reference DCRNN keeps them for encoder+decoder x 2 layers across the
# whole unrolled sequence because its loop-based implementation holds every
# intermediate for backward (~45x) — this is where the paper's 24.84 GB vs
# 1.58 GB gap comes from.
ACT_MULTIPLIER = {"pgt-dcrnn": 3.0, "dcrnn": 45.0}


def case_study() -> dict[str, dict[str, float]]:
    spec = get_spec("pems-all-la")
    shapes = (spec.num_nodes, spec.horizon, spec.train_features)
    rows = {}
    for name, model, mem_sim in (
            ("dcrnn", dcrnn_perf(*shapes), simulate_dcrnn_loader),
            ("pgt-dcrnn", pgt_dcrnn_perf(*shapes, efficiency=EFFICIENCY_PGT_SMALL),
             simulate_standard_pipeline)):
        pm = TrainingPerfModel(spec, model, 32)
        run = pm.run("standard", 1, 1, include_validation=False)
        host = polaris_host()
        mem_sim(spec, host)
        gpu_bytes = pm.gpu_training_bytes(data_resident=False)
        gpu_bytes *= ACT_MULTIPLIER[name]
        rows[name] = {"runtime_min": run.training_seconds / 60.0,
                      "system_gb": host.peak / GB, "gpu_gb": gpu_bytes / GB}
    return rows
