"""The claims ledger, checked: every row of ``repro.experiments`` runs at
the ``tiny`` scale and every check it states must hold; for every paper
artifact, giving the guarded quantity the value the claim rules out must
make a check fail (the checks are pure, so no rerun is needed)."""

import copy
import functools

import pytest

from repro.experiments import CLAIMS, all_claims, format_table, render
from repro.experiments.claims import TABLE3_RUNTIME

SCALE = "tiny"


@functools.cache
def measured(row, seed):
    return row.run(SCALE, seed)


def failures(row, rows):
    return {c.name for c in row.checks(rows) if not c.ok}


@pytest.mark.parametrize("artifact, seed", [
    (row.ids[0], seed) for row in all_claims() for seed in row.seeds])
def test_claim_holds(artifact, seed):
    row = CLAIMS.get(artifact)
    rows = measured(row, seed)
    names = [c.name for c in row.checks(rows)]
    assert len(names) == len(set(names))
    failed = failures(row, rows)
    if TABLE3_RUNTIME in failed:
        # Deterministic workload, noisy clock: one re-measure on a miss
        # filters scheduler spikes that exceed even the wide band.
        failed -= {TABLE3_RUNTIME} - failures(row, row.run(SCALE, seed))
    assert not failed, render(row, rows)


def _copy(dst, key, src=None, src_key=None):
    """Row ``dst``'s ``key`` := row ``src``'s ``src_key`` (default: same)."""
    return lambda r: r[dst].update({key: r[src or dst][src_key or key]})


def _scale(label, key, factor):
    return lambda r: r[label].update({key: r[label][key] * factor})


def _shift_curve(series):
    def perturb(r):
        for label, values in r.items():
            if label.startswith("epoch ") and series in values:
                values[series] *= 1.01
    return perturb


#: artifact -> the perturbation its claim rules out.
BITES = {
    "table1": _copy("pems", "after_gb", src_key="before_gb"),
    "figure2": lambda r: r["pgt-dcrnn/pems"].update(oom=0.0),
    "figure3": _copy("stage3_xy_split", "gb", "stage1_time_feature"),
    "table2": _copy("dcrnn", "runtime_min", "pgt-dcrnn"),
    "table3": _copy("index/pems-bay", "peak_mb", "base/pems-bay"),
    "figure5": _shift_curve("index/pems-bay"),
    "table4": _copy("gpu-index-batching", "cpu_gb", "index-batching"),
    "figure6": lambda r: r["pgt-standard"].update(oom=0.0),
    "table5": _scale("batch/4", "best_val_mae", 1.2),
    "table6": _copy("index", "cpu_mb", "base"),
    "figure7": _copy("dist-index@4", "comm_min", "baseline-ddp@4"),
    "figure8": _copy("8 GPUs", "best_val_mae", "1 GPU"),
    "figure9": _copy("index@4", "comm_s", "ddp@4"),
    "figure10": _copy("32 GPUs", "total_min", "1 GPU"),
    "figure10-train": _scale("4 GPUs", "final_train_loss", 10.0),
    "ablation-prefetch": _copy("4 GPUs", "prefetch_epoch_s",
                               src_key="epoch_s"),
    "ablation-partitioning": _copy("partitioned-4", "flops_per_snapshot",
                                   "full-graph"),
    "ablation-shuffle": lambda r: r["local"].update(best_val_mae=float("nan")),
}


def test_every_artifact_has_a_bite():
    assert sorted(BITES) == CLAIMS.names()


@pytest.mark.parametrize("artifact", sorted(BITES))
def test_claim_bites(artifact):
    row = CLAIMS.get(artifact)
    rows = copy.deepcopy(measured(row, row.seeds[0]))
    before = failures(row, rows)
    BITES[artifact](rows)
    assert failures(row, rows) - before


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [["x", 1], ["yy", 22]])
        lines = out.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_title(self):
        out = format_table(["a"], [["x"]], title="T")
        assert out.splitlines()[0] == "T"
