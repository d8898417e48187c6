"""The claims ledger: every paper table and figure this repository
reproduces, each claim stated once.

One row per paper artifact (or per pair of artifacts one run produces:
Table 3 + Figure 5, Table 4 + Figure 6), registered in :data:`CLAIMS`:

- *real* rows train at a ``scale`` / ``seed`` through ``repro.api.run``
  on scaled-down synthetic stand-ins (accuracy and preprocessing memory);
- *simulated* rows replay the published pipelines' allocations and run
  the calibrated performance model at full PeMS scale (runtime and
  memory); :data:`CALIBRATION` says which of them are in-sample.

``run(scale, seed)`` returns plain rows of named floats and the pure
``checks(rows)`` sets each number beside the paper's with its bound.
``python -m repro.experiments <id>|all [--scale]`` prints them;
``benchmarks/test_claims.py`` asserts every check of every row.
"""

from repro.experiments import claims as _claims  # noqa: F401  (registers rows)
from repro.experiments.ledger import (
    CALIBRATION,
    CLAIMS,
    SIMULATED,
    all_claims,
    format_table,
    render,
)

__all__ = ["CALIBRATION", "CLAIMS", "SIMULATED", "all_claims", "format_table",
           "render"]
