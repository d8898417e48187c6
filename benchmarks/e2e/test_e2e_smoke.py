"""Tier-1 smoke test of the end-to-end benchmark (``--quick``, two seeds).

Two quick runs go side by side: seed 0 traced (every metric name), and a
second seed whose first ``serve_gateway`` forecast is deliberately damaged
before it is checked, which proves the correctness gate bites.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import run as e2e

SPEC = e2e.load_spec()
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Counts that depend on shapes only, so they repeat across seeds, and
#: between a workload's untraced worker and its traced twin.
REPEATING_COUNTS = ("runtime.allreduce_calls_per_step",
                    "runtime.allreduce_bytes_per_step",
                    "preprocessing.peak_bytes", "batching.gather_calls")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    cmd = [sys.executable, os.path.join(ROOT, "benchmarks", "e2e", "run.py"),
           "--quick"]
    procs = [
        subprocess.Popen(cmd + ["--seed", "0", "--trace", "--out",
                                str(out / "a.json"), "--trace-out",
                                str(out / "spans")],
                         stdout=subprocess.PIPE, text=True),
        subprocess.Popen(cmd + ["--seed", "7", "--corrupt", "serve_gateway",
                                "--out", str(out / "b.json")],
                         stdout=subprocess.PIPE, text=True),
    ]
    texts = [p.communicate(timeout=170)[0] for p in procs]
    reports = [json.loads((out / f).read_text())
               for f in ("a.json", "b.json")]
    return procs, texts, reports, out


def test_every_workload_and_metric_is_reported(runs):
    procs, texts, (traced, _), out = runs
    assert procs[0].returncode == 0, texts[0]
    assert list(traced["workloads"]) == SPEC["workloads"] == list(
        e2e.WORKLOADS)
    for name, res in traced["workloads"].items():
        assert NAME.fullmatch(name)
        assert set(res["metrics"]) == (set(SPEC["end_to_end"])
                                       | set(SPEC["partial"]))
        assert set(res["layers"]) == set(SPEC["per_layer"])
        for key in SPEC["end_to_end"]:
            assert res["metrics"][key]["value"] > 0, (name, key)
            assert key in texts[0]
        assert res["metrics"]["failed_share"]["value"] == 0
        assert res["failed"] == 0 and res["traced"]["failed"] == 0
        assert all(res["checks"].values()), res["checks"]
        assert res["traced"]["spans"] > 0
        assert (out / "spans" / f"spans-{name}.jsonl").stat().st_size > 0
    assert all(NAME.fullmatch(k) for k in SPEC["per_layer"])
    env = traced["environment"]
    assert env["kernel_backend"] == "numpy"
    assert set(env["blas_thread_pins"].values()) == {"1"}
    assert env["machine_ref_ms"]["min"] > 0


def test_each_workload_touches_the_layers_it_should(runs):
    _, _, (traced, _), _ = runs
    layers = {n: r["layers"] for n, r in traced["workloads"].items()}
    assert layers["data_index"]["batching.gather_share"] > 0.5
    assert layers["data_index"]["models.forward_ms"] == 0
    assert layers["train_index"]["batching.gather_share"] < 0.05
    assert layers["train_index"]["models.forward_ms"] > 0
    assert layers["ddp_index_w2"]["runtime.run_ranks_ms"] > 0
    assert layers["ddp_index_w2"]["runtime.forked_step_ms"] > 0
    assert traced["workloads"]["ddp_index_w2"]["checks"][
        "forked_equals_inline_bitwise"]
    # ops bound by the core are timed against the reference pass; a
    # memory gather is not
    assert layers["train_index"]["host_speed"] > 0
    assert layers["data_index"]["host_speed"] == 0
    assert layers["serve_gateway"]["serving.predict_ms_b8"] > 0
    assert layers["train_index"]["serving.predict_ms_b8"] == 0


def test_counts_repeat_exactly(runs):
    _, _, (a, b), _ = runs
    for name, res in a["workloads"].items():
        other = b["workloads"][name]["counts"]
        for key in REPEATING_COUNTS:
            assert res["counts"][key] == res["layers"][key], (name, key)
            if key != "batching.gather_calls":  # the traced run halves it
                assert res["counts"][key] == other[key], (name, key)
    assert a["workloads"]["ddp_index_w2"]["counts"][
        "runtime.allreduce_calls_per_step"] == 1
    assert a["workloads"]["data_index"]["counts"][
        "preprocessing.peak_over_raw"] == pytest.approx(5.0, rel=0.02)


def test_a_corrupted_forecast_fails_the_serving_check(runs):
    procs, texts, (_, damaged), _ = runs
    assert procs[1].returncode == 1, texts[1]
    assert damaged["workloads"]["serve_gateway"]["failed"] >= 1
    assert damaged["workloads"]["serve_gateway"]["metrics"][
        "failed_share"]["value"] > 0
    for name in ("train_index", "data_index", "ddp_index_w2"):
        assert damaged["workloads"][name]["failed"] == 0

