"""Smoke + shape tests for the experiment harness (tiny scale)."""

import numpy as np
import pytest

from repro.api.scales import SMALL, get_scale
from repro.experiments.ablations import (
    run_partitioning_ablation,
    run_prefetch_ablation,
    run_shuffle_sweep,
)
from repro.experiments.figure10 import run_figure10_real
from repro.experiments.table1 import report as table1_report, run_table1
from repro.experiments.table3 import run_table3


class TestConfig:
    def test_presets(self):
        assert get_scale("tiny").name == "tiny"
        assert get_scale(SMALL) is SMALL
        with pytest.raises(KeyError):
            get_scale("huge")


class TestReports:
    def test_table1_report_renders(self):
        rep = table1_report(run_table1())
        text = str(rep)
        assert "pems" in text and "419.46" in text

    def test_report_by_first_column(self):
        rep = table1_report()
        rows = rep.by_first_column()
        assert "pems-bay" in rows

    def test_cli_main_runs(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out


class TestAblations:
    def test_prefetch_reduces_exposed_comm(self):
        points = run_prefetch_ablation(gpu_counts=(4, 64))
        for p in points:
            assert p.epoch_prefetch <= p.epoch_plain
        # Where compute is plentiful (4 GPUs), overlap hides a lot.
        assert points[0].saving > 0.2

    def test_partitioning_trades_accuracy_for_compute(self):
        results = run_partitioning_ablation(scale="tiny", seed=0,
                                            num_parts=4)
        full = next(r for r in results if r.mode == "full-graph")
        part = next(r for r in results if r.mode.startswith("partitioned"))
        # Partitioned models are computationally lighter per snapshot...
        assert part.model_flops_per_snapshot < full.model_flops_per_snapshot
        # ...and both converge to sane MAE (the accuracy *cost* is noisy at
        # tiny scale, so we only require partitioned not to be wildly
        # better, which would indicate a bug in the full-graph path).
        assert part.val_mae > 0.5 * full.val_mae
        assert np.isfinite(part.val_mae) and np.isfinite(full.val_mae)

    def test_shuffle_sweep_runs_all_modes(self):
        results = run_shuffle_sweep(scale="tiny", seed=0, world=2)
        assert {r.shuffle for r in results} == {"global", "local", "batch"}
        for r in results:
            assert 0 < r.val_mae < 100


class TestRealExperimentDeterminism:
    def test_table3_deterministic_in_seed(self):
        a = run_table3(scale="tiny", seed=5, datasets=("pems-bay",))
        b = run_table3(scale="tiny", seed=5, datasets=("pems-bay",))
        for ra, rb in zip(a, b):
            assert ra.best_val_mae == rb.best_val_mae
            np.testing.assert_array_equal(ra.val_curve, rb.val_curve)

    def test_figure10_real_trains(self):
        results = run_figure10_real(scale="tiny", seed=0, gpu_counts=(2,))
        assert len(results) == 1
        assert np.isfinite(results[0].best_val_mae)
