"""Driver and command line of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --trace               # + per-layer metrics
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --compare A.json B.json

Run shape: one fresh worker interpreter per workload (plus a traced twin
with ``--trace``), set up one after another, then 12 segments per worker
handed out round-robin with the order rotated every round; only one
worker runs at a time.  Every timed metric is the median over the 12
segment values, with ``spread`` = IQR/median beside it.  Ops bound by the
interpreter and the core are timed against a reference pass interleaved
with them (``machine.Paired``: why, and which ops); everything else is as
measured.  With ``--workload`` the last stdout line is the one-object
result the ``BENCHMARK.json`` contract prescribes.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import machine  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    LATENCY_LIMIT_S, SEGMENTS, WORKLOADS)

SETUP_REPEATS = 5
QUICK_SEGMENTS = 2
#: Longest silence tolerated on a worker's pipe before the run is aborted.
WORKER_TIMEOUT_S = 150.0
#: Trailing-window length and loss factor of ``time_to_target_s``: the sum
#: of timed op durations until the trailing mean loss first falls to
#: factor x the mean of the first window.
TARGET_WINDOW = 20
TARGET_FACTOR = {"train_index": 0.90, "ddp_index_w2": 0.85}
#: Which phase of a segment gives throughput and which gives latency.
PHASES = {"serve_gateway": ("capacity", "open")}


def load_spec() -> dict:
    """Names, units, directions and bounds, from ``BENCHMARK.json``: the
    one place they are declared.

    ``end_to_end`` are the metrics every workload defines.  The ones only
    some workloads define cannot be bounded there (its contract wants every
    end-to-end metric from every workload and never 0), so it lists them
    among ``per_layer`` as ``e2e.<name>``; ``partial`` maps them back.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    return {
        "seconds": spec["run_seconds"],
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": per_layer,
        "partial": {k[4:]: m for k, m in per_layer.items()
                    if k.startswith("e2e.")},
    }


class BenchmarkAborted(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
class Worker:
    """Driver-side handle of one worker interpreter."""

    def __init__(self, name: str, traced: bool, argv: list[str], env: dict):
        self.name, self.traced = name, traced
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=ROOT, text=True, bufsize=1)
        self.segments: list[dict] = []
        self.setup_s: list[float] = []

    def send(self, cmd: str, **fields) -> None:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()

    def recv(self, event: str) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    WORKER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchmarkAborted(
                f"worker {self.name} gave no {event!r} event "
                f"(exit code {self.proc.poll()})")
        msg = json.loads(line)
        if msg["event"] != event:
            raise BenchmarkAborted(f"worker {self.name}: expected "
                                   f"{event!r}, got {msg['event']!r}")
        return msg

    def close(self) -> None:
        """Stop the worker (if it still runs) and wait until it has ended."""
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                stream.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _worker_env(workdir: str) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in machine.THREAD_PINS})
    env.pop("REPRO_KERNEL_BACKEND", None)   # workers select numpy explicitly
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + [p for p in [env.get("PYTHONPATH")] if p])
    env["TMPDIR"] = workdir
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _set_up(name: str, traced: bool, argv: list[str], env: dict,
            repeats: int, spawned: list[Worker]) -> Worker:
    """Start a worker ``repeats`` times, timing start -> ``ready`` each
    time; the last one stays for the segments."""
    seconds = []
    for repeat in range(repeats):
        t0 = time.perf_counter()
        worker = Worker(name, traced, argv, env)
        spawned.append(worker)
        worker.ready = worker.recv("ready")
        seconds.append(time.perf_counter() - t0)
        if repeat < repeats - 1:
            worker.send("quit")
            worker.close()
    worker.setup_s = seconds
    return worker


def run_pass(names: list[str], spec: dict, *, seed: int, seconds: float,
             trace: bool, quick: bool = False, setups: int = SETUP_REPEATS,
             trace_out: str | None = None,
             corrupt: str | None = None) -> dict:
    """Set up, interleave and finish the workers of ``names``."""
    workdir = os.path.join(ROOT, ".e2e_bench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = _worker_env(workdir)
    budget = seconds / (10 if quick else 1) / (2 if trace else 1)
    n_segments = QUICK_SEGMENTS if quick else SEGMENTS
    workers: list[Worker] = []
    spawned: list[Worker] = []      # every interpreter started, for cleanup
    ref_ms: list[float] = []
    load0 = os.getloadavg()
    try:
        data = None
        if "data_index" in names:
            data = os.path.join(workdir, "data_index.npz")
            subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 "--workload", "data_index", "--seed", str(seed),
                 "--seconds", "0", "--data", data, "--make-data",
                 *(["--quick"] if quick else [])],
                env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
        for name in names:
            for traced in ((False, True) if trace else (False,)):
                argv = ["--workload", name, "--seed", str(seed),
                        "--seconds", repr(budget), "--trace",
                        str(int(traced))]
                if name == "data_index":
                    argv += ["--data", data]
                if quick:
                    argv.append("--quick")
                if traced:
                    argv += ["--trace-out", os.path.join(
                        trace_out or workdir, f"spans-{name}.jsonl")]
                # setup_s comes from the untraced worker alone
                workers.append(_set_up(name, traced, argv, env,
                                       1 if traced else setups, spawned))
        for round_index in range(n_segments):
            ref_ms.append(machine.machine_ref_ms())
            shift = round_index % len(workers)
            for worker in workers[shift:] + workers[:shift]:
                if (corrupt == worker.name and not worker.traced
                        and round_index == 0):
                    worker.send("corrupt")
                worker.send("segment", index=round_index)
                worker.segments.append(worker.recv("segment"))
        for worker in workers:
            worker.send("finish")
            worker.done = worker.recv("done")
            worker.close()
    finally:
        for worker in spawned:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:     # another run is using it
            pass

    results = {}
    for name in names:
        plain = next(w for w in workers if w.name == name and not w.traced)
        twin = next((w for w in workers if w.name == name and w.traced), None)
        results[name] = summarize(name, plain, twin, spec)
    env_block = dict(workers[0].ready["environment"])
    env_block["loadavg_before"] = list(load0)
    env_block["loadavg_after"] = list(os.getloadavg())
    env_block["machine_ref_ms"] = machine.summarize_ref(ref_ms)
    return {"seed": seed, "seconds": seconds, "quick": quick,
            "segments": n_segments, "setup_repeats": setups,
            "environment": env_block, "workloads": results}


# ----------------------------------------------------------------------
# From segments to metrics
# ----------------------------------------------------------------------
def _spread(values: list[float]) -> float:
    """IQR / median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q[2] - q[0]) / mid if mid else 0.0


def _metric(values: list[float], unit: str, samples: int,
            better: str | None = None) -> dict:
    """One value from the per-segment values: their median, or, for a
    throughput or median latency as measured (``better`` = which side is
    better), the quartile on that side.  Timed against the reference
    pass a value's noise has two sides; as measured, interference only
    ever worsens it, and over 4-minute series cut into runs the better
    quartile repeats 1.5x to 1.8x more closely than the median."""
    value = (statistics.median(values) if better is None else
             float(np.quantile(values, 0.25 if better == "lower" else 0.75)))
    return {"value": value, "unit": unit, "samples": samples,
            "spread": _spread(values), "segment_values": values}


def _best_of(values: list[float], unit: str) -> dict:
    """Minimum over repeated set-ups, with how well it repeats beside it:
    the gap to the second smallest.  On the sizing box every other start
    pays ~1 s per 300 MB for first-touch page backing by the hypervisor
    (pages a process freed are handed back to the host a few seconds
    later), so the median of the same repeats lands in either mode."""
    ranked = sorted(values)
    gap = (ranked[1] - ranked[0]) / ranked[0] if len(ranked) > 1 else 0.0
    return {"value": ranked[0], "unit": unit, "samples": len(values),
            "spread": gap, "segment_values": values}


def _single(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples, "spread": 0.0}


def _time_to_target(name: str, durations_s: list[float],
                    losses: list[float]) -> tuple[float, bool]:
    """Seconds of timed ops until the target loss, and whether it was
    reached; the whole run's seconds when it was not (never 0: a run that
    misses the target must not read as the fastest one)."""
    w = min(TARGET_WINDOW, len(losses) // 2)
    target = TARGET_FACTOR[name] * statistics.fmean(losses[:w])
    trailing = sum(losses[:w])
    for i in range(w, len(losses)):
        trailing += losses[i] - losses[i - w]
        if trailing / w <= target:
            return sum(durations_s[:i + 1]), True
    return sum(durations_s), False


def _op_p50(phase: dict) -> float:
    """Median op time of a phase: at the reference speed when its ops
    were paired with reference passes, else as measured."""
    if "at_ref_ms" in phase:
        return phase["at_ref_ms"]
    return statistics.median(phase["op_ms"])


def end_to_end(name: str, worker: Worker) -> tuple[dict, int, int]:
    """The nine end-to-end metrics of one (untraced) worker, plus the
    attempted and failed op counts behind ``failed_share``."""
    t_phase, l_phase = PHASES.get(name, ("ops", "ops"))
    rate, p50, p95, pooled, losses, speed = [], [], [], [], [], []
    attempted = failed = late = sent = 0
    for seg in worker.segments:
        for phase in seg["phases"].values():
            attempted += phase["attempted"]
            failed += phase["failed"]
        tp, lp = seg["phases"][t_phase], seg["phases"][l_phase]
        # A paired phase (machine.Paired) is read at the reference speed:
        # its ops at ``at_ref_ms`` each; any other phase as measured.
        if "at_ref_ms" in tp:
            rate.append(tp["windows"]
                        / (len(tp["op_ms"]) * tp["at_ref_ms"] / 1e3))
            speed.append(tp["host_speed"])
        else:
            rate.append(tp["windows"] / tp["wall_s"])
        p50.append(_op_p50(lp))
        paired_latency = "at_ref_ms" in lp
        p95.append(float(np.quantile(lp["op_ms"], 0.95)))
        pooled += lp["op_ms"]
        late += lp.get("late", 0)
        sent += lp["attempted"]
        losses += lp.get("losses", [])
    checks = worker.done["checks"]
    failed += sum(not ok for ok in checks.values())
    attempted += len(checks)
    n_ops = len(pooled)
    metrics = {
        "setup_s": _best_of(worker.setup_s, "s"),
        "windows_per_s": _metric(rate, "windows/s", len(rate),
                                 None if speed else "higher"),
        "op_ms_p50": _metric(p50, "ms", n_ops,
                             None if paired_latency else "lower"),
        "peak_rss_mb": _single(worker.segments[-1]["rss_mb"], "MB", 1),
        "failed_share": _single(failed / attempted, "share", attempted),
        "op_ms_p95": None, "op_ms_p99": None, "late_share": None,
        "time_to_target_s": None,
    }
    if speed:
        # context: raw throughput = windows_per_s / host_speed
        metrics["windows_per_s"]["host_speed"] = statistics.median(speed)
    if name == "serve_gateway":
        metrics["op_ms_p95"] = _metric(p95, "ms", n_ops)
        metrics["op_ms_p99"] = _single(float(np.quantile(pooled, 0.99)),
                                       "ms", n_ops)
        metrics["late_share"] = _single(late / sent, "share", sent)
    if name in TARGET_FACTOR:
        seconds, reached = _time_to_target(
            name, [v / 1e3 for v in pooled], losses)
        metrics["time_to_target_s"] = {
            **_single(seconds, "s", len(losses)), "reached": reached}
    return metrics, attempted, failed


def _span(phase: dict, name: str, field: str = "total_s") -> float:
    return phase.get("spans", {}).get(name, {}).get(field, 0.0)


def per_layer(name: str, twin: Worker, e2e: dict,
              spec: dict) -> dict[str, float]:
    """Every per-layer metric of one workload (0 where the workload does
    no work in that layer).  Timed values come from the traced twin;
    counts come from its own counters and repeat exactly."""
    t_phase, l_phase = PHASES.get(name, ("ops", "ops"))
    out = dict.fromkeys(spec["per_layer"], 0.0)
    out.update({k: v for k, v in twin.done["layers"].items() if k in out})

    per_seg: dict[str, list[float]] = {}

    def add(key: str, value: float) -> None:
        per_seg.setdefault(key, []).append(value)

    p50 = []
    for seg in twin.segments:
        ph, lat = seg["phases"][t_phase], seg["phases"][l_phase]
        ops = max(1, ph["attempted"])
        p50.append(_op_p50(lat))
        if "host_speed" in ph:
            # spans are as measured: a paired workload's add up to its
            # traced op_ms_p50 x host_speed
            add("host_speed", ph["host_speed"])

        def ms(span: str, field: str = "total_s", per: float = ops) -> float:
            return _span(ph, span, field) * 1e3 / per

        if name in ("train_index", "data_index"):
            add("batching.gather_ms", ms("batching.gather"))
            add("batching.gather_share",
                _span(ph, "batching.gather") / max(_span(ph, "op"), 1e-12))
            plans = _span(ph, "batching.plan", "calls")
            add("batching.plan_ms",
                ms("batching.plan", per=plans) if plans else 0.0)
            out["batching.gather_calls"] += _span(ph, "batching.gather",
                                                  "calls")
        if name == "train_index":
            add("models.forward_ms", ms("models.forward"))
            add("autograd.backward_ms", ms("autograd.backward"))
            add("optim.step_ms", ms("optim.step"))
        if name == "ddp_index_w2":
            steps = max(1, len(ph["op_ms"]))
            ranks = ms("runtime.run_ranks", per=steps)
            reduce_ms = ms("runtime.allreduce", per=steps)
            compute = max(ph["rank_compute_s"]) * 1e3 / steps
            add("runtime.run_ranks_ms", ranks)
            add("runtime.allreduce_ms", reduce_ms)
            add("runtime.rank_compute_ms", compute)
            add("training.apply_ms",
                sum(ph["op_ms"]) / steps - ranks - reduce_ms)
            add("runtime.allreduce_calls_per_step",
                ph["allreduce_calls"] / steps)
            add("runtime.allreduce_bytes_per_step",
                ph["allreduce_bytes"] / steps)
        if name == "serve_gateway":
            add("serving.gateway.submit_ms",
                ms("serving.gateway.submit", "self_s"))
            add("serving.gateway.poll_self_ms",
                ms("serving.gateway.poll", "self_s"))
            add("serving.gateway.burst_predict_ms",
                ms("serving.predict", per=max(1, len(ph["op_ms"]))))
            add("serving.gateway.admit_us", 1e3 * ms("serving.gateway.admit"))
            add("serving.gateway.auth_us", 1e3 * ms("serving.gateway.auth"))
            add("serving.queue_wait_ms", lat["queue_wait_ms"])
            add("serving.generator_late_ms_p99", lat["generator_late_ms_p99"])
            for key in ("batch_size_mean", "busy_share"):
                add(f"serving.{key}", lat[key])
            add("serving.gateway.cache_hit_ratio", lat["cache_hit_ratio"])
    for key, values in per_seg.items():
        out[key] = statistics.median(values)
    if name == "ddp_index_w2" and out["runtime.forked_step_ms"]:
        # two forked ranks against the same step with the ranks inline
        out["runtime.parallel_speedup"] = (
            statistics.median(p50) / out["runtime.forked_step_ms"])
    out["trace_overhead_share"] = (
        statistics.median(p50) / e2e["op_ms_p50"]["value"] - 1.0)
    for key in spec["partial"]:
        out[f"e2e.{key}"] = e2e[key]["value"] if e2e[key] else 0.0
    return out


def _counts(name: str, worker: Worker) -> dict:
    """Counts that depend on shapes only and so repeat exactly from run
    to run and seed to seed (0 where the workload has no such layer)."""
    t_phase, _ = PHASES.get(name, ("ops", "ops"))
    phases = [seg["phases"][t_phase] for seg in worker.segments]
    steps = max(1, sum(len(p["op_ms"]) for p in phases))
    counts = {k: worker.ready["layers"].get(k, 0) for k in (
        "preprocessing.peak_bytes", "preprocessing.resident_bytes",
        "preprocessing.peak_over_raw")}
    counts["batching.gather_calls"] = (
        sum(p["attempted"] for p in phases)
        if name in ("train_index", "data_index") else 0)
    for key in ("allreduce_calls", "allreduce_bytes"):
        counts[f"runtime.{key}_per_step"] = sum(
            p.get(key, 0) for p in phases) / steps
    return counts


def summarize(name: str, plain: Worker, twin: Worker | None,
              spec: dict) -> dict:
    metrics, attempted, failed = end_to_end(name, plain)
    result = {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "checks": plain.done["checks"],
        "failure_notes": plain.done["failure_notes"],
        "counts": _counts(name, plain),
    }
    if name == "serve_gateway":
        late = [seg["phases"]["open"]["generator_late_ms_p99"]
                for seg in plain.segments]
        result["backlog_growing"] = len(late) > 2 and all(
            b > a for a, b in zip(late, late[1:]))
        result["constants"] = {
            "rate_per_s": WORKLOADS[name].RATE_PER_S,
            "latency_limit_ms": LATENCY_LIMIT_S * 1e3}
    if name in TARGET_FACTOR:
        result["constants"] = {"target_factor": TARGET_FACTOR[name],
                               "target_window": TARGET_WINDOW}
        result["losses"] = [v for seg in plain.segments
                            for v in seg["phases"]["ops"]["losses"]]
    if twin is not None:
        result["layers"] = per_layer(name, twin, metrics, spec)
        result["traced"] = {
            "checks": twin.done["checks"], "spans": twin.done["spans"],
            "failure_notes": twin.done["failure_notes"]}
        twin_failed = sum(not ok for ok in twin.done["checks"].values())
        for seg in twin.segments:
            twin_failed += sum(p["failed"] for p in seg["phases"].values())
        result["traced"]["failed"] = twin_failed
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_report(report: dict, spec: dict, out=sys.stdout) -> None:
    env = report["environment"]
    ref = env["machine_ref_ms"]
    print(f"seed {report['seed']}  cores {env['usable_cores']}  "
          f"backend {env['kernel_backend']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}", file=out)
    print(f"loadavg {env['loadavg_before'][0]:.2f} -> "
          f"{env['loadavg_after'][0]:.2f}  machine_ref_ms "
          f"min {ref['min']:.3f} median {ref['median']:.3f} "
          f"max {ref['max']:.3f}", file=out)
    for name, res in report["workloads"].items():
        print(f"\n{name}  attempted {res['attempted']} failed "
              f"{res['failed']}  checks "
              + " ".join(f"{k}={'ok' if v else 'FAILED'}"
                         for k, v in res["checks"].items()), file=out)
        for key, m in res["metrics"].items():
            if m is None:
                print(f"  {key:<18} null", file=out)
                continue
            note = ("  target not reached: whole run"
                    if m.get("reached") is False else "")
            if "host_speed" in m:
                note += (f"  at reference speed (the host ran "
                         f"{m['host_speed']:.2f}x its pass time)")
            print(f"  {key:<18} {m['value']:>12.6g} {m['unit']:<9} "
                  f"n={m['samples']:<6} spread {m['spread']:.3f}{note}",
                  file=out)
        if res.get("backlog_growing"):
            print("  backlog_growing: generator lateness rose every segment",
                  file=out)
        for note in res["failure_notes"]:
            print("  failure: " + note.strip().splitlines()[-1], file=out)
        for key, value in res.get("layers", {}).items():
            if value:
                print(f"    {key:<36} {value:>14.6g} "
                      f"{spec['per_layer'][key]['unit']}", file=out)


def contract_line(report: dict, spec: dict, name: str, trace: bool) -> str:
    res = report["workloads"][name]
    if trace:
        metrics = {k: {"value": float(v), "unit": spec["per_layer"][k]["unit"]}
                   for k, v in res["layers"].items()}
        failed = res["failed"] + res["traced"]["failed"]
    else:
        metrics = {k: {"value": res["metrics"][k]["value"], "unit": m["unit"]}
                   for k, m in spec["end_to_end"].items()}
        failed = res["failed"]
    return json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=spec["workloads"],
                    help="run one workload and end with the contract line")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["seconds"],
                    help="measured time per workload")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    help="also run a traced twin of each workload")
    ap.add_argument("--quick", action="store_true",
                    help="smoke test: 2 segments of a tenth the length")
    ap.add_argument("--out", help="write the full report as JSON")
    ap.add_argument("--trace-out", help="directory for the span files")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--corrupt", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        from benchmarks.e2e.compare import compare
        return compare(*args.compare, spec)
    if args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
    names = [args.workload] if args.workload else spec["workloads"]
    try:
        report = run_pass(
            names, spec, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), quick=args.quick,
            setups=1 if args.quick else SETUP_REPEATS,
            trace_out=args.trace_out, corrupt=args.corrupt)
    except (BenchmarkAborted, subprocess.SubprocessError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    print_report(report, spec)
    failed = sum(res["failed"] + res.get("traced", {}).get("failed", 0)
                 for res in report["workloads"].values())
    if args.workload:
        print(contract_line(report, spec, args.workload, bool(args.trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
