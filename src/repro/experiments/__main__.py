"""CLI: print any row of the claims ledger, or all of them.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments figure6
    python -m repro.experiments table3 --scale tiny
    python -m repro.experiments all
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (
    CALIBRATION,
    CLAIMS,
    all_claims,
    format_table,
    render,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate PGT-I paper tables and figures, each number "
                    "beside the paper's and the bound it is held to.")
    parser.add_argument("experiment", choices=CLAIMS.names() + ["all"],
                        help="which artifact to regenerate")
    parser.add_argument("--scale", default="small",
                        choices=["tiny", "small", "medium"],
                        help="working scale for real-training experiments")
    args = parser.parse_args(argv)

    if args.experiment == "all":
        print(format_table(
            ["constant", "value", "fit to", "in-sample rows"],
            [[n, v, fit, ", ".join(rows)] for n, v, fit, rows in CALIBRATION],
            title="Calibration: every other simulated row is out-of-sample"))
        print()
    rows = all_claims() if args.experiment == "all" else [CLAIMS.get(args.experiment)]
    for row in rows:
        print(render(row, row.run(args.scale, row.seeds[0])))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
