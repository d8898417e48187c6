"""The ledger's rows: every paper table and figure this repository covers,
its run, and the checks that hold our numbers to the paper's.

Each bound below is the one the repository has asserted for that claim;
the ``paper`` column is the paper's own number where it reports one.
"""

from __future__ import annotations

import math

import numpy as np

from repro import api
from repro.api import RunSpec
from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.datasets import CATALOG, get_spec
from repro.experiments import scaling
from repro.experiments.casestudy import case_study
from repro.experiments.ledger import (
    REAL,
    SIMULATED,
    Check,
    Rows,
    between,
    check,
    claim,
    near,
)
from repro.experiments.partitioning import partitioning
from repro.hardware.memory import MemorySpace
from repro.hardware.specs import polaris_host
from repro.optim import scale_lr_linear
from repro.preprocessing import figure3_stages
from repro.preprocessing.memory_model import (
    simulate_dcrnn_loader,
    simulate_gpu_index_pipeline,
    simulate_index_pipeline,
    simulate_standard_pipeline,
    table1_sizes,
)
from repro.training import mse
from repro.training.perfmodel import TrainingPerfModel, stllm_perf
from repro.utils.errors import OutOfMemoryError
from repro.utils.sizes import GB, MB


def _run(scale: str, seed: int, **spec) -> api.RunResult:
    return api.run(RunSpec(scale=scale, seed=seed, **spec))


def _shuffled_mae(scale: str, seed: int, world: int, shuffle: str) -> float:
    """Best val MAE of PGT-DCRNN on PeMS-BAY under distributed-index."""
    return _run(scale, seed, dataset="pems-bay", model="pgt-dcrnn",
                batching="index", strategy="dist-index", world_size=world,
                shuffle=shuffle).best_val_mae


def _gpus(n: int) -> str:
    return "1 GPU" if n == 1 else f"{n} GPUs"


def _epochs(curves: dict[str, list[float]]) -> Rows:
    """A figure's curves as rows ``epoch 1..E`` with one column per run."""
    n = max(len(c) for c in curves.values())
    return {f"epoch {e + 1}": {k: c[e] for k, c in curves.items() if e < len(c)}
            for e in range(n)}


def _curve(rows: Rows, series: str) -> list[float]:
    return [r[series] for k, r in rows.items()
            if k.startswith("epoch ") and series in r]


def _converges(label: str, curve: list[float], op: str, start: int
               ) -> list[Check]:
    """Finite, and ``min(curve[start:]) <op> curve[0]``."""
    since = f" from epoch {start + 1}" if start else ""
    return [check(f"{label}: non-finite epochs", None,
                  sum(not math.isfinite(v) for v in curve), "==", 0),
            check(f"{label}: best val MAE{since} vs epoch 1", None,
                  min(curve[start:]), op, curve[0])]


def _replay(simulate, spec, *devices: MemorySpace) -> dict[str, float]:
    """One pipeline's allocations replayed on a 512 GB Polaris host."""
    host = polaris_host()
    try:
        simulate(spec, host, *devices)
        oom = 0.0
    except OutOfMemoryError:
        oom = 1.0
    trace = host.usage_trace()
    return {"peak_gb": host.peak / GB, "final_gb": trace[-1][1] / GB,
            "trace_max_gb": max(u for _, u in trace) / GB,
            "events": float(len(trace)), "oom": oom}


# ---------------------------------------------------------------------------
# Table 1: dataset sizes before/after standard preprocessing
# ---------------------------------------------------------------------------
PAPER_AFTER_GB = {"metr-la": 2.54, "pems-bay": 6.05, "pems-all-la": 102.08,
                  "pems": 419.46}


def _table1_checks(r: Rows) -> list[Check]:
    out = [near(f"{n}: size after (GB)", gb, r[n]["after_gb"], 0.005)
           for n, gb in PAPER_AFTER_GB.items()]
    # Growth is ~2 * horizon (x the time-of-day channel): eq. (1).
    for n, row in r.items():
        s = get_spec(n)
        out.append(near(f"{n}: growth vs eq. (1)",
                        2 * s.horizon * s.train_features / s.raw_features,
                        row["after_gb"] / row["before_gb"], 0.02))
    # A modest file grows close enough to the 512 GB node that the
    # pipeline's transient copies overflow it (Figure 2).
    return out + [check("pems: size before (GB)", None,
                        r["pems"]["before_gb"], "<", 16),
                  check("pems: size after, near the node limit (GB)", 419.46,
                        r["pems"]["after_gb"], ">", 400)]


@claim("table1", mode=SIMULATED, checks=_table1_checks,
       title="Table 1: dataset sizes before/after preprocessing (float64)")
def _table1(scale: str, seed: int) -> Rows:
    rows = {}
    for spec in CATALOG.values():
        before, after = table1_sizes(spec)
        rows[spec.name] = {"nodes": float(spec.num_nodes),
                           "entries": float(spec.num_entries),
                           "before_gb": before / GB, "after_gb": after / GB}
    return rows


# ---------------------------------------------------------------------------
# Figure 2: host memory of DCRNN / PGT-DCRNN, OOM on full PeMS
# ---------------------------------------------------------------------------
def _figure2_checks(r: Rows) -> list[Check]:
    out = [check(f"{k}: OOM", oom, r[k]["oom"], "==", oom)
           for k, oom in (("dcrnn/pems-all-la", 0), ("pgt-dcrnn/pems-all-la", 0),
                          ("dcrnn/pems", 1), ("pgt-dcrnn/pems", 1))]
    out.append(check("pems-all-la: DCRNN - PGT-DCRNN peak (GB)",
                     371.25 - 259.84, r["dcrnn/pems-all-la"]["peak_gb"]
                     - r["pgt-dcrnn/pems-all-la"]["peak_gb"], ">", 50))
    for k, t in r.items():
        if t["oom"]:   # the crash happens close to the 512 GB line
            out.append(check(f"{k}: peak at OOM (GB)", None, t["peak_gb"],
                             ">", 350))
        out += [check(f"{k}: peak (GB)", None, t["peak_gb"], "<=", 512),
                check(f"{k}: trace events", None, t["events"], ">=", 4),
                check(f"{k}: trace max (GB)", None, t["trace_max_gb"], "==",
                      t["peak_gb"])]
    return out


@claim("figure2", mode=SIMULATED, checks=_figure2_checks,
       title="Figure 2: memory during preprocessing/training "
             "(512 GB node limit)")
def _figure2(scale: str, seed: int) -> Rows:
    return {f"{model}/{dataset}": _replay(simulate, get_spec(dataset))
            for model, simulate in (("dcrnn", simulate_dcrnn_loader),
                                    ("pgt-dcrnn", simulate_standard_pipeline))
            for dataset in ("pems-all-la", "pems")}


# ---------------------------------------------------------------------------
# Figure 3: stage-by-stage growth of PeMS-All-LA
# ---------------------------------------------------------------------------
def _figure3_checks(r: Rows) -> list[Check]:
    gb = {k: v["gb"] for k, v in r.items()}
    return [near("raw (GB)", 2.12, gb["raw"], 0.01),
            check("stage 1 / raw", 2, gb["stage1_time_feature"] / gb["raw"],
                  "==", 2),
            near("stage 2 (GB)", 51.04, gb["stage2_swa"], 0.01),
            near("stage 3 (GB)", 102.08, gb["stage3_xy_split"], 0.005),
            # "The majority of the postprocessed data is redundant".
            near("stage 3 / stage 1", 24.0,
                 gb["stage3_xy_split"] / gb["stage1_time_feature"], 0.02)]


@claim("figure3", mode=SIMULATED, checks=_figure3_checks,
       title="Figure 3: data growth during PeMS-All-LA preprocessing")
def _figure3(scale: str, seed: int) -> Rows:
    return {k: {"gb": v / GB}
            for k, v in figure3_stages(get_spec("pems-all-la")).items()}


# ---------------------------------------------------------------------------
# Table 2: one epoch of DCRNN vs PGT-DCRNN on PeMS-All-LA
# ---------------------------------------------------------------------------
def _table2_checks(r: Rows) -> list[Check]:
    dcrnn, pgt = r["dcrnn"], r["pgt-dcrnn"]
    return [
        near("DCRNN runtime (min)", 68.48, dcrnn["runtime_min"], 0.2),
        near("PGT-DCRNN runtime (min)", 4.48, pgt["runtime_min"], 0.25),
        between("runtime DCRNN / PGT-DCRNN", 68.48 / 4.48,
                dcrnn["runtime_min"] / pgt["runtime_min"], 10, 25),
        check("system mem DCRNN - PGT-DCRNN (GB)", 371.25 - 259.84,
              dcrnn["system_gb"] - pgt["system_gb"], ">", 0),
        between("DCRNN system mem (GB)", 371.25, dcrnn["system_gb"], 250, 420),
        between("PGT-DCRNN system mem (GB)", 259.84, pgt["system_gb"], 180, 300),
        near("DCRNN GPU mem (GB)", 24.84, dcrnn["gpu_gb"], 0.2),
        near("PGT-DCRNN GPU mem (GB)", 1.58, pgt["gpu_gb"], 0.25),
        check("DCRNN system mem fits the node (GB)", 371.25,
              dcrnn["system_gb"], "<", 512),
        check("DCRNN GPU mem fits an A100 (GB)", 24.84, dcrnn["gpu_gb"],
              "<", 40)]


claim("table2", mode=SIMULATED, checks=_table2_checks,
      title="Table 2: single-epoch DCRNN vs PGT-DCRNN on PeMS-All-LA "
            "(batch 32)")(lambda scale, seed: case_study())


# ---------------------------------------------------------------------------
# Table 3 + Figure 5: base vs index-batching, real single-GPU training
# ---------------------------------------------------------------------------
TABLE3_DATASETS = ("chickenpox-hungary", "windmill-large", "pems-bay")
#: The one check timed on the wall clock (the ledger test re-measures it
#: once on a miss: the workload is deterministic, only the clock is noisy).
TABLE3_RUNTIME = "runtime |index - base| / base, 3-dataset total"


def _table3_checks(r: Rows) -> list[Check]:
    out = [near(f"{d}: best val MAE base / index", 1.0,
                r[f"base/{d}"]["best_val_mae"] / r[f"index/{d}"]["best_val_mae"],
                1e-6) for d in TABLE3_DATASETS]
    # Paper: <1%.  Tiny runs take ~0.1 s, where OS jitter is tens of
    # percent, so the total over the three datasets gets a 40% band.
    base, index = (sum(r[f"{m}/{d}"]["runtime_s"] for d in TABLE3_DATASETS)
                   for m in ("base", "index"))
    out.append(check(TABLE3_RUNTIME, 0.01, abs(index - base) / base, "<", 0.40))
    for d, paper in (("windmill-large", 1 - 0.469), ("pems-bay", 1 - 0.703)):
        out.append(check(f"{d}: peak mem index / base", paper,
                         r[f"index/{d}"]["peak_mb"] / r[f"base/{d}"]["peak_mb"],
                         "<", 0.5))
    # Figure 5: identical, converging curves (same snapshots, same seeds).
    base, index = _curve(r, "base/pems-bay"), _curve(r, "index/pems-bay")
    out.append(Check("figure 5: pems-bay curves, max |base - index| / index",
                     0.0, max(abs(b - i) / abs(i) for b, i in zip(base, index)),
                     "<= 1e-06", len(base) == len(index) and all(
                         abs(b - i) <= 1e-6 * abs(i) for b, i in zip(base, index))))
    for mode, curve in (("base", base), ("index", index)):
        out += [check(f"figure 5: {mode} epochs", None, len(curve), ">=", 3),
                *_converges(f"figure 5: {mode}", curve, "<", 2)]
    return out


@claim("table3", "figure5", mode=REAL, checks=_table3_checks, seeds=(0, 1, 3, 4),
       title="Table 3 + Figure 5: base vs index-batching, one GPU "
             "(scaled synthetic stand-ins)")
def _table3(scale: str, seed: int) -> Rows:
    rows, curves = {}, {}
    for name in TABLE3_DATASETS:
        for mode in ("base", "index"):
            res = _run(scale, seed, dataset=name, model="pgt-dcrnn",
                       batching=mode)
            rows[f"{mode}/{name}"] = {"runtime_s": res.runtime_seconds,
                                      "best_val_mae": res.best_val_mae,
                                      "peak_mb": res.peak_bytes / MB}
            curves[f"{mode}/{name}"] = res.val_curve
    return rows | _epochs(curves)


# ---------------------------------------------------------------------------
# Table 4 + Figure 6: index vs GPU-index batching on full PeMS
# ---------------------------------------------------------------------------
def _table4_checks(r: Rows) -> list[Check]:
    idx, gpu = r["index-batching"], r["gpu-index-batching"]
    out = [
        near("index runtime (min)", 333.58, idx["runtime_min"], 0.05),
        near("GPU-index runtime (min)", 290.65, gpu["runtime_min"], 0.05),
        between("runtime saving", 0.1287,
                1 - gpu["runtime_min"] / idx["runtime_min"], 0.08, 0.20),
        near("index CPU mem (GB)", 45.84, idx["cpu_gb"], 0.1),
        near("GPU-index CPU mem (GB)", 18.20, gpu["cpu_gb"], 0.15),
        between("CPU mem saving", 0.603, 1 - gpu["cpu_gb"] / idx["cpu_gb"],
                0.45, 0.70),
        check("GPU mem GPU-index / index (dataset on device)", 18.60 / 5.50,
              gpu["gpu_gb"] / idx["gpu_gb"], ">", 3),
        check("GPU-index GPU mem fits an A100 (GB)", 18.60, gpu["gpu_gb"],
              "<", 40)]
    # Figure 6: standard OOMs; index spikes to ~46 GB, settles ~18-20 GB;
    # GPU-index keeps the host low throughout.
    std, ti, tg = (r[f"pgt-{k}"] for k in
                   ("standard", "index-batching", "gpu-index-batching"))
    return out + [
        check("figure 6: standard OOM", 1, std["oom"], "==", 1),
        check("figure 6: index OOM", 0, ti["oom"], "==", 0),
        check("figure 6: GPU-index OOM", 0, tg["oom"], "==", 0),
        between("figure 6: index peak (GB)", 45.84, ti["peak_gb"], 40, 50),
        between("figure 6: index final (GB)", None, ti["final_gb"], 17, 22),
        check("figure 6: index peak / final", None,
              ti["peak_gb"] / ti["final_gb"], ">", 2),
        check("figure 6: GPU-index peak (GB)", 18.20, tg["peak_gb"], "<", 22),
        check("figure 6: GPU-index / index peak", 1 - 0.603,
              tg["peak_gb"] / ti["peak_gb"], "<", 0.5),
        check("figure 6: standard / index peak", None,
              std["peak_gb"] / ti["peak_gb"], ">", 1),
        check("figure 6: index / GPU-index peak", None,
              ti["peak_gb"] / tg["peak_gb"], ">", 1)]


@claim("table4", "figure6", mode=SIMULATED, checks=_table4_checks,
       title="Table 4 + Figure 6: single-GPU PeMS, index vs GPU-index "
             "batching (30 epochs) and host-memory traces")
def _table4(scale: str, seed: int) -> Rows:
    pm = scaling.pems_model()
    spec = pm.spec
    training = pm.gpu_training_bytes(data_resident=False)
    gpu = MemorySpace("gpu", capacity=40 * GB)
    idx = _replay(simulate_index_pipeline, spec)
    gidx = _replay(simulate_gpu_index_pipeline, spec, gpu)
    return {
        "index-batching": {
            "runtime_min": pm.run("index", 1, 30, seed=0).total_seconds / 60,
            "cpu_gb": idx["peak_gb"], "gpu_gb": training / GB},
        "gpu-index-batching": {
            "runtime_min": pm.run("gpu-index", 1, 30, seed=0).total_seconds / 60,
            "cpu_gb": gidx["peak_gb"], "gpu_gb": (gpu.in_use + training) / GB},
        "pgt-standard": _replay(simulate_standard_pipeline, spec),
        "pgt-index-batching": idx, "pgt-gpu-index-batching": gidx}


# ---------------------------------------------------------------------------
# Table 5: global vs batch-level shuffling
# ---------------------------------------------------------------------------
def _table5_checks(r: Rows) -> list[Check]:
    mae = {k: v["best_val_mae"] for k, v in r.items()}
    return [check(f"{g} GPUs: |global - batch| / global MAE", None,
                  abs(mae[f"global/{g}"] - mae[f"batch/{g}"]) / mae[f"global/{g}"],
                  "<", 0.10) for g in (4, 8, 16)] + \
        [between(f"{k}: best val MAE", None, v, 0, 50) for k, v in mae.items()]


@claim("table5", mode=REAL, checks=_table5_checks,
       title="Table 5: best validation MAE, global vs local batch shuffling")
def _table5(scale: str, seed: int) -> Rows:
    return {f"{shuffle}/{world}": {
                "best_val_mae": _shuffled_mae(scale, seed, world, shuffle)}
            for shuffle in ("global", "batch") for world in (4, 8, 16)}


# ---------------------------------------------------------------------------
# Table 6: A3T-GCN with and without index-batching (§5.5)
# ---------------------------------------------------------------------------
def _test_mse(model, loader) -> float:
    """Standardized-scale MSE on the test split (as ST-LLM reports)."""
    model.eval()
    errs, weights = [], []
    with no_grad():
        for x, y in loader.batches():
            pred = model(Tensor(x)).data[..., 0]
            errs.append(mse(pred, y[..., 0]))
            weights.append(pred.size)
    return float(np.average(errs, weights=weights))


def _table6_checks(r: Rows) -> list[Check]:
    base, index = r["base"], r["index"]
    # Same snapshots, same seeds: identical accuracy (the paper's two
    # runs differ by 0.2%), at about half the memory.
    return [near("test MSE base / index", 0.5436 / 0.5427,
                 base["test_mse"] / index["test_mse"], 1e-6, expected=1.0),
            check("CPU mem index / base", 1233 / 2426,
                  index["cpu_mb"] / base["cpu_mb"], "<", 0.6)]


@claim("table6", mode=REAL, checks=_table6_checks,
       title="Table 6: A3T-GCN base vs index-batching on a METR-LA stand-in "
             "(paper: 1041.95 s/2426 MB/0.5436 vs 1050.80 s/1233 MB/0.5427)")
def _table6(scale: str, seed: int) -> Rows:
    rows = {}
    for mode in ("base", "index"):
        res = _run(scale, seed, dataset="metr-la", model="a3tgcn",
                   batching=mode)
        rows[mode] = {"runtime_s": res.runtime_seconds,
                      "cpu_mb": res.peak_bytes / MB,
                      "test_mse": _test_mse(res.artifacts.model,
                                            res.artifacts.loaders.test)}
    return rows


# ---------------------------------------------------------------------------
# Figure 7: scaling study, baseline DDP vs distributed-index-batching
# ---------------------------------------------------------------------------
def _figure7_checks(r: Rows) -> list[Check]:
    ddp = {g: r[f"baseline-ddp@{g}"] for g in scaling.GPU_COUNTS}
    di = {g: r[f"dist-index@{g}"] for g in scaling.GPU_COUNTS}
    speedup = {g: ddp[g]["total_min"] / di[g]["total_min"] for g in ddp}
    steps = [speedup[b] / speedup[a] for a, b in
             zip(scaling.GPU_COUNTS, scaling.GPU_COUNTS[1:])]

    def efficiency(g):   # near-linear at 4-32 GPUs, a knee at 64/128
        return di[4]["total_min"] / di[g]["total_min"] / (g / 4)

    pre = [p["preprocess_s"] for p in ddp.values()]
    return [
        near("speedup vs DDP @4", 2.16, speedup[4], 0.15),
        near("speedup vs DDP @128", 11.78, speedup[128], 0.25),
        check("speedup vs DDP grows with GPUs (min step ratio)", None,
              min(steps), ">=", 1),
        near("speedup vs 1 GPU @128", 79.41,
             r["index@1"]["total_min"] / di[128]["total_min"], 0.2),
        check("efficiency @8", None, efficiency(8), ">", 0.9),
        check("efficiency @16", None, efficiency(16), ">", 0.85),
        check("efficiency @32", None, efficiency(32), ">", 0.75),
        check("efficiency @128 (the knee)", None, efficiency(128), "<",
              efficiency(32)),
        *[check(f"DDP @{g}: comm / compute", None,
                ddp[g]["comm_min"] / ddp[g]["compute_min"], ">", 1)
          for g in (16, 32, 64, 128)],
        *[check(f"dist-index @{g}: comm share", None,
                di[g]["comm_min"] / di[g]["total_min"], "<", 0.2)
          for g in (4, 8, 16, 32)],
        check("DDP preprocessing max / min", None, max(pre) / min(pre),
              "<", 1.5),
        *[check(f"dist-index @{g}: preprocessing (s)", None,
                di[g]["preprocess_s"], "<", 60) for g in (4, 32, 128)]]


claim("figure7", mode=SIMULATED, checks=_figure7_checks,
      title="Figure 7: scaling study on PeMS, 30 epochs")(
    lambda scale, seed: scaling.figure7())


# ---------------------------------------------------------------------------
# Figure 8: MAE vs GPU count (real distributed training)
# ---------------------------------------------------------------------------
def _figure8_checks(r: Rows) -> list[Check]:
    mae = {k: v["best_val_mae"] for k, v in r.items()
           if not k.startswith("epoch ")}
    out = [check("MAE @4 vs @1", None, mae["4 GPUs"], ">", mae["1 GPU"]),
           check("MAE @8 vs @4", None, mae["8 GPUs"], ">", mae["4 GPUs"]),
           check("MAE @8 / @1", 2.23 / 1.66, mae["8 GPUs"] / mae["1 GPU"],
                 ">", 1.05),
           check("MAE @8 with linear LR scaling (paper §5.3.3)", None,
                 mae["8 GPUs, lr x8"], "<", mae["8 GPUs"])]
    for label in mae:
        out += _converges(label, _curve(r, label), "<=", 0)
    return out


@claim("figure8", mode=REAL, checks=_figure8_checks,
       title="Figure 8: validation MAE vs GPU count (global-batch effect)")
def _figure8(scale: str, seed: int) -> Rows:
    rows, curves = {}, {}
    for world, lr, label in ((1, 0.01, "1 GPU"), (2, 0.01, "2 GPUs"),
                             (4, 0.01, "4 GPUs"), (8, 0.01, "8 GPUs"),
                             (8, scale_lr_linear(0.01, 8), "8 GPUs, lr x8")):
        res = _run(scale, seed, dataset="pems", model="pgt-dcrnn",
                   batching="index", lr=lr, strategy="dist-index",
                   world_size=world)
        rows[label] = {"lr": lr, "best_val_mae": res.best_val_mae,
                       "final_train_loss": res.final_train_loss}
        curves[label] = res.val_curve
    return rows | _epochs(curves)


# ---------------------------------------------------------------------------
# Figure 9: generalized-distributed-index-batching vs batch-shuffling DDP
# ---------------------------------------------------------------------------
def _figure9_checks(r: Rows) -> list[Check]:
    ddp = {g: r[f"ddp@{g}"] for g in scaling.GPU_COUNTS}
    idx = {g: r[f"index@{g}"] for g in scaling.GPU_COUNTS}
    mem = r["memory, 4 workers"]
    return [
        near("DDP epoch @4 (s)", 303, ddp[4]["epoch_s"], 0.1),
        check("DDP epoch @4 / @128 (far from linear)", 303 / 231,
              ddp[4]["epoch_s"] / ddp[128]["epoch_s"], "<", 32 / 4),
        # The simulator reproduces >= 1.5x everywhere, but not the paper's
        # growth at 64/128 GPUs.
        *[check(f"speedup floor @{g}", None,
                ddp[g]["epoch_s"] / idx[g]["epoch_s"], ">", 1.5)
          for g in scaling.GPU_COUNTS],
        near("speedup @4", 2.28, ddp[4]["epoch_s"] / idx[4]["epoch_s"], 0.35),
        *[check(f"comm DDP / index @{g}", None,
                ddp[g]["comm_s"] / idx[g]["comm_s"], ">", 8)
          for g in (4, 16, 64)],
        check("DDP @4: comm share", None,
              ddp[4]["comm_s"] / ddp[4]["epoch_s"], ">", 0.3),
        check("index @4: comm share", None,
              idx[4]["comm_s"] / idx[4]["epoch_s"], "<", 0.2),
        between("aggregate memory DDP / index", 479.66 / 53.28,
                mem["ddp_gb"] / mem["index_gb"], 6, 15),
        near("DDP aggregate memory (GB)", 479.66, mem["ddp_gb"], 0.15),
        near("index aggregate memory (GB)", 53.28, mem["index_gb"], 0.35)]


claim("figure9", mode=SIMULATED, checks=_figure9_checks,
      title="Figure 9: batch-shuffling epoch, DDP vs "
            "generalized-distributed-index-batching")(
    lambda scale, seed: scaling.figure9())


# ---------------------------------------------------------------------------
# Figure 10: ST-LLM under distributed-index-batching on PeMS-BAY
# ---------------------------------------------------------------------------
STLLM_GPUS = (1, 4, 8, 16, 32)


def _figure10_checks(r: Rows) -> list[Check]:
    total = {g: r[_gpus(g)]["total_min"] for g in STLLM_GPUS}
    return [near("speedup @4", 3.92, total[1] / total[4], 0.15),
            near("speedup @32", 30.01, total[1] / total[32], 0.2),
            *[check(f"efficiency @{g}", None, total[1] / total[g] / g, ">",
                    0.75) for g in STLLM_GPUS[1:]],
            *[check(f"preprocessing @{g} (s)", 1.35,
                    r[_gpus(g)]["preprocess_s"], "<", 2.0)
              for g in STLLM_GPUS]]


@claim("figure10", mode=SIMULATED, checks=_figure10_checks,
       title="Figure 10: ST-LLM distributed-index-batching scaling on "
             "PeMS-BAY, 30 epochs")
def _figure10(scale: str, seed: int) -> Rows:
    spec = get_spec("pems-bay")
    pm = TrainingPerfModel(spec, stllm_perf(
        spec.num_nodes, spec.horizon, spec.train_features), 64)
    rows = {}
    for gpus in STLLM_GPUS:
        run = pm.run("gpu-index" if gpus == 1 else "dist-index", gpus, 30,
                     seed=0)
        rows[_gpus(gpus)] = {"total_min": run.total_seconds / 60,
                             "preprocess_s": run.preprocess_seconds}
    return rows


def _figure10_train_checks(r: Rows) -> list[Check]:
    return [c for k, v in r.items() for c in (
        between(f"{k}: best val MAE", None, v["best_val_mae"], 0, 100),
        check(f"{k}: final train loss", None, v["final_train_loss"], "<", 2.0))]


@claim("figure10-train", mode=REAL, checks=_figure10_train_checks,
       title="Figure 10 (trained): scaled-down ST-LLM actually trains "
             "under distributed-index-batching")
def _figure10_train(scale: str, seed: int) -> Rows:
    rows = {}
    for world in (1, 4):
        res = _run(scale, seed, dataset="pems-bay", model="st-llm",
                   batching="index", lr=0.005, strategy="dist-index",
                   world_size=world)
        rows[_gpus(world)] = {"best_val_mae": res.best_val_mae,
                              "final_train_loss": res.final_train_loss}
    return rows


# ---------------------------------------------------------------------------
# Ablations: the paper's §7 future work and the shuffle design choice
# ---------------------------------------------------------------------------
def _prefetch_checks(r: Rows) -> list[Check]:
    return [check(f"{k}: prefetch epoch (s)", None, v["prefetch_epoch_s"],
                  "<=", v["epoch_s"]) for k, v in r.items()] + [
        check("4 GPUs: saving (compute hides the fetch)", None,
              1 - r["4 GPUs"]["prefetch_epoch_s"] / r["4 GPUs"]["epoch_s"],
              ">", 0.2)]


@claim("ablation-prefetch", mode=SIMULATED, checks=_prefetch_checks,
       title="Ablation: baseline DDP epoch on PeMS with the next batch's "
             "fetch overlapped behind compute (paper §7)")
def _prefetch(scale: str, seed: int) -> Rows:
    pm = scaling.pems_model()
    return {_gpus(g): {
        "epoch_s": pm.epoch_breakdown("baseline-ddp", g,
                                      include_validation=False).total,
        "prefetch_epoch_s": pm.epoch_breakdown(
            "baseline-ddp", g, include_validation=False, prefetch=True).total}
        for g in (4, 16, 64)}


def _partitioning_checks(r: Rows) -> list[Check]:
    full, part = r["full-graph"], r["partitioned-4"]
    # The accuracy *cost* is noisy at tiny scale: only require that the
    # partitioned models are not wildly better (a full-graph bug).
    return [check("flops per snapshot partitioned / full", None,
                  part["flops_per_snapshot"] / full["flops_per_snapshot"],
                  "<", 1),
            check("val MAE partitioned / full", None,
                  part["val_mae"] / full["val_mae"], ">", 0.5),
            check("non-finite val MAEs", None,
                  sum(not math.isfinite(v["val_mae"]) for v in r.values()),
                  "==", 0)]


claim("ablation-partitioning", mode=REAL, checks=_partitioning_checks,
      title="Ablation: graph partitioning + index-batching (paper §7)")(
    partitioning)


def _shuffle_checks(r: Rows) -> list[Check]:
    return [between(f"{s}: best val MAE", None, r[s]["best_val_mae"], 0, 100)
            for s in ("global", "local", "batch")]


@claim("ablation-shuffle", mode=REAL, checks=_shuffle_checks,
       title="Ablation: global vs local vs batch shuffling, 4 workers")
def _shuffle(scale: str, seed: int) -> Rows:
    return {s: {"best_val_mae": _shuffled_mae(scale, seed, 4, s)}
            for s in ("global", "local", "batch")}
