"""Figures 7 and 9: the full-scale PeMS scaling sweeps on the calibrated
performance model, 4-128 GPUs, split into computation and communication.

Communication comes from the public ``ProcessGroup.stats`` traffic
categories (:meth:`TrainingPerfModel.epoch_process_group`): every point
carries ``comm_s.<category>`` seconds and ``comm_bytes.<category>`` bytes
for ``gradient`` / ``data`` / ``metric``, the categories the DDP trainers
record at small scale.  A category a strategy never uses is absent.
"""

from __future__ import annotations

from repro.datasets import get_spec
from repro.preprocessing.memory_model import standard_preprocessed_nbytes
from repro.training.perfmodel import TrainingPerfModel, pgt_dcrnn_perf
from repro.utils.sizes import GB

GPU_COUNTS = (4, 8, 16, 32, 64, 128)
EPOCHS = 30


def pems_model() -> TrainingPerfModel:
    """PGT-DCRNN on full PeMS, batch 64: the model every PeMS row runs."""
    spec = get_spec("pems")
    model = pgt_dcrnn_perf(spec.num_nodes, spec.horizon, spec.train_features)
    return TrainingPerfModel(spec, model, 64)


def _traffic(pg) -> dict[str, float]:
    stats = pg.stats
    return {**{f"comm_s.{k}": v for k, v in stats.time_by_category.items()},
            **{f"comm_bytes.{k}": float(v)
               for k, v in stats.bytes_by_category.items()}}


def figure7() -> dict[str, dict[str, float]]:
    """30-epoch totals: ``index@1`` and ``{baseline-ddp,dist-index}@G``."""
    pm = pems_model()
    single = pm.run("index", 1, EPOCHS, seed=0)
    rows = {"index@1": {"total_min": single.total_seconds / 60}}
    for strategy in ("baseline-ddp", "dist-index"):
        for gpus in GPU_COUNTS:
            run = pm.run(strategy, gpus, EPOCHS, seed=0)
            e = run.epoch
            rows[f"{strategy}@{gpus}"] = {
                "total_min": run.total_seconds / 60,
                "compute_min": EPOCHS * (e.compute + e.h2d + e.validation) / 60,
                "comm_min": EPOCHS * (e.comm + e.framework) / 60,
                "preprocess_s": run.preprocess_seconds,
                **_traffic(pm.epoch_process_group(strategy, gpus))}
    return rows


def figure9() -> dict[str, dict[str, float]]:
    """One batch-shuffling epoch, ``{ddp,index}@G`` (generalized index),
    plus the four-worker aggregate memory the paper quotes."""
    pm = pems_model()
    rows = {}
    for method, strategy in (("ddp", "baseline-ddp"),
                             ("index", "generalized-index")):
        for gpus in GPU_COUNTS:
            e = pm.epoch_breakdown(strategy, gpus, include_validation=False)
            rows[f"{method}@{gpus}"] = {
                "epoch_s": e.total,
                "compute_s": e.compute + e.h2d,
                "comm_s": e.comm + e.framework,
                **_traffic(pm.epoch_process_group(
                    strategy, gpus, include_validation=False))}
    rows["memory, 4 workers"] = _aggregate_memory_gb(pm.spec)
    return rows


def _aggregate_memory_gb(spec) -> dict[str, float]:
    """Sum of per-worker peaks (the paper's aggregate memory metric)."""
    windowed = standard_preprocessed_nbytes(
        spec.num_entries, spec.num_nodes, spec.train_features, spec.horizon)
    # Baseline DDP: the full windowed dataset spread over workers, plus a
    # standardisation scratch share per worker (~1/16 partition slack).
    ddp_total = windowed * (1.0 + 1.0 / 16.0)
    # Generalized-index: raw partitions + per-worker scratch + staging.
    aug = spec.num_entries * spec.num_nodes * spec.train_features * 8
    index_total = aug * 2.0 + spec.raw_nbytes() * 0.5
    return {"ddp_gb": ddp_total / GB, "index_gb": index_total / GB}
