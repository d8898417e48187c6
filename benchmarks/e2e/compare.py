"""``--compare A.json B.json``: is run B worse than run A?

One row per workload x end-to-end metric with both medians, the ratio and
its base, each side's ``spread``, and a verdict: ``unresolved`` (a side's
spread is wider than the bound, so the medians cannot tell), ``worse`` (B
is worse than A by more than the metric's bound) or ``within-bound``.
Exit code 1 on any ``worse``.
"""

from __future__ import annotations

import json

#: name -> (relative bound, absolute bound) between two full runs.  A
#: metric is worse only when it exceeds both (``setup_s``: +25% *and* more
#: than 0.3 s).  ``BENCHMARK.json``'s own ``bound`` fields judge something
#: else (short single-workload runs with different seeds) and are wider.
BOUNDS = {
    "setup_s": (0.25, 0.3),
    "windows_per_s": (0.10, 0.0),
    "op_ms_p50": (0.10, 0.0),
    "op_ms_p95": (0.15, 0.0),
    "op_ms_p99": (0.25, 0.0),
    "late_share": (0.0, 0.005),
    "peak_rss_mb": (0.05, 0.0),
    "failed_share": (0.0, 0.0),
    "time_to_target_s": (0.10, 0.0),
}


def verdict(a: dict, b: dict, better: str, rel: float,
            absolute: float) -> str:
    if rel and max(a["spread"], b["spread"]) > rel:
        return "unresolved"
    delta = b["value"] - a["value"]
    if better == "higher":
        delta = -delta
    if delta > absolute and delta > rel * abs(a["value"]):
        return "worse"
    return "within-bound"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as fh:
        run_a = json.load(fh)
    with open(path_b) as fh:
        run_b = json.load(fh)
    better = {k: m["better"] for k, m in
              {**spec["end_to_end"], **spec["partial"]}.items()}
    worse = 0
    print(f"{'workload':<14} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'B/A':>7}  {'spread A':>8} {'spread B':>8}  verdict")
    for name, res_a in run_a["workloads"].items():
        res_b = run_b["workloads"].get(name)
        if res_b is None:
            continue
        for key, (rel, absolute) in BOUNDS.items():
            a, b = res_a["metrics"].get(key), res_b["metrics"].get(key)
            if a is None and b is None:
                continue
            if a is None or b is None:
                print(f"{name:<14} {key:<18} defined on one side only: worse")
                worse += 1
                continue
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            result = verdict(a, b, better[key], rel, absolute)
            worse += result == "worse"
            print(f"{name:<14} {key:<18} {a['value']:>12.6g} "
                  f"{b['value']:>12.6g} {ratio:>7.3f}  {a['spread']:>8.3f} "
                  f"{b['spread']:>8.3f}  {result} (base A = "
                  f"{a['value']:.6g} {a['unit']})")
        counts_a, counts_b = res_a.get("counts", {}), res_b.get("counts", {})
        for key in sorted(set(counts_a) & set(counts_b)):
            if not counts_a[key] and not counts_b[key]:
                continue        # a layer this workload does no work in
            same = counts_a[key] == counts_b[key]
            print(f"{name:<14} {key:<32} {counts_a[key]!r} vs "
                  f"{counts_b[key]!r}: {'identical' if same else 'DIFFERS'}")
    return 1 if worse else 0
