"""Regenerate the paper's single-GPU PeMS comparison (Table 4), the
full-scale scaling study (Figure 7) and the generalized-index comparison
(Figure 9) from the claims ledger, with each number beside the paper's.

Everything here is simulated at true PeMS scale (11,160 sensors, 105,120
timesteps) on the calibrated performance model — exactly the
configuration that OOMs real machines without index-batching.

Run:  python examples/scaling_study.py
"""

from repro.experiments import CLAIMS, render
from repro.viz import bar_chart, line_plot


def main() -> None:
    results = {}
    for artifact in ("table4", "figure7", "figure9"):
        row = CLAIMS.get(artifact)
        results[artifact] = row.run("tiny", 0)   # simulated: no scale/seed
        print(render(row, results[artifact]))
        print()

    r7 = results["figure7"]
    print(line_plot(
        {s: [(int(k.split("@")[1]), v["total_min"])
             for k, v in r7.items() if k.startswith(s + "@")]
         for s in ("baseline-ddp", "dist-index")},
        title="Figure 7: total runtime vs GPUs (minutes)", xlabel="GPUs"))
    print()
    r9 = results["figure9"]
    print(bar_chart(
        {f"{m} @{g}": {"compute": r9[f"{m}@{g}"]["compute_s"],
                       "comm": r9[f"{m}@{g}"]["comm_s"]}
         for m in ("ddp", "index") for g in (4, 32, 128)},
        title="Figure 9: epoch time split (seconds)", unit="s"))


if __name__ == "__main__":
    main()
