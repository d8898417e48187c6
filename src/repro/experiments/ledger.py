"""The claims ledger's machinery: rows, checks, the calibration note and
the one renderer.

A :class:`Claim` is one row of the ledger: the paper artifact(s) it
covers, its mode, a ``run(scale, seed)`` returning plain rows of named
floats (``{row label: {column: value}}``) and a pure ``checks(rows)``
returning :class:`Check` tuples.  Rows are registered in :data:`CLAIMS`
under every artifact id they cover.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from repro.api.registry import Registry
from repro.experiments.casestudy import ACT_MULTIPLIER
from repro.training import perfmodel as pm

Rows = dict[str, dict[str, float]]

REAL, SIMULATED = "real", "simulated"

CLAIMS = Registry("claim")


class Check(NamedTuple):
    """One guarded number: the paper's value beside ours, and our bound."""

    name: str
    paper: float | None
    ours: float
    bound: str
    ok: bool


@dataclass(frozen=True, eq=False)
class Claim:
    ids: tuple[str, ...]                 # paper artifacts one run covers
    title: str
    mode: str                            # REAL (trains) or SIMULATED
    run: Callable[[str, int], Rows]      # (scale, seed) -> rows
    checks: Callable[[Rows], list[Check]]
    seeds: tuple[int, ...] = (0,)        # seeds the ledger test runs


def claim(*ids: str, title: str, mode: str,
          checks: Callable[[Rows], list[Check]],
          seeds: tuple[int, ...] = (0,)):
    """Decorator registering a ``run(scale, seed)`` as one ledger row."""
    def register(run: Callable[[str, int], Rows]) -> Claim:
        row = Claim(ids, title, mode, run, checks, seeds)
        for artifact in ids:
            CLAIMS.register(artifact, row)
        return row
    return register


def all_claims() -> list[Claim]:
    """Every row once, in artifact-id order."""
    return list(dict.fromkeys(CLAIMS.get(name) for name in CLAIMS))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


def check(name: str, paper: float | None, ours: float, op: str,
          limit: float) -> Check:
    """``ours <op> limit``."""
    return Check(name, paper, ours, f"{op} {limit:.5g}",
                 _OPS[op](ours, limit))


def near(name: str, paper: float, ours: float, rel: float, *,
         expected: float | None = None) -> Check:
    """``ours`` within ``rel`` of ``expected`` (default: the paper's
    value), by ``pytest.approx``'s relative rule."""
    expected = paper if expected is None else expected
    return Check(name, paper, ours,
                 f"rel ±{rel:g}" + (f" of {expected:g}" if expected != paper else ""),
                 abs(ours - expected) <= rel * abs(expected))


def between(name: str, paper: float | None, ours: float, lo: float,
            hi: float) -> Check:
    return Check(name, paper, ours, f"({lo:g}, {hi:g})", lo < ours < hi)


# ---------------------------------------------------------------------------
# Calibration: what every simulated row rests on
# ---------------------------------------------------------------------------
#: (constant, value, the paper measurement it was fit to, rows fit on it).
#: Every simulated row not named here is out-of-sample.
CALIBRATION = (
    ("EFFICIENCY_PGT", f"{pm.EFFICIENCY_PGT:g} of FP32 peak",
     "Table 4: GPU-index PeMS runtime, 290.65 min", ("table4",)),
    ("EFFICIENCY_PGT_SMALL", f"{pm.EFFICIENCY_PGT_SMALL:g} of FP32 peak",
     "Table 2: PGT-DCRNN epoch on PeMS-All-LA, 4.48 min", ("table2",)),
    ("EFFICIENCY_PYTORCH_DCRNN", f"{pm.EFFICIENCY_PYTORCH_DCRNN:g} of FP32 peak",
     "Table 2: DCRNN epoch on PeMS-All-LA, 68.48 min", ("table2",)),
    ("PAGEABLE_H2D_BW", f"{pm.PAGEABLE_H2D_BW:.3g} B/s",
     "Table 4: index vs GPU-index runtime gap, 333.58 vs 290.65 min",
     ("table4",)),
    ("DASK_DISTRIBUTION_BW", f"{pm.DASK_DISTRIBUTION_BW:.3g} B/s",
     "Figure 7: baseline DDP preprocessing plateau, ~305 s", ("figure7",)),
    ("DASK_FABRIC_BW0/EXP",
     f"{pm.DASK_FABRIC_BW0:.3g} B/s x nodes^{pm.DASK_FABRIC_EXP:g}",
     "Figure 7: dist-index vs DDP speedups, 2.16x @4 and 11.78x @128 GPUs",
     ("figure7",)),
    ("EPOCH_FIXED_OVERHEAD", f"{pm.EPOCH_FIXED_OVERHEAD:g} s per epoch",
     "Figure 7: the 64/128-GPU scaling knee", ("figure7",)),
    ("ACT_MULTIPLIER", ", ".join(f"{k} {v:g}" for k, v in ACT_MULTIPLIER.items()),
     "Table 2: GPU memory, 24.84 vs 1.58 GB", ("table2",)),
)


def sample(row: Claim) -> str:
    """How a row relates to the calibration: real, in- or out-of-sample."""
    if row.mode == REAL:
        return "real training"
    fit = [name for name, _, _, rows in CALIBRATION if set(rows) & set(row.ids)]
    return (f"simulated, in-sample (fit: {', '.join(fit)})" if fit
            else "simulated, out-of-sample")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str = "") -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return f"{value:,.0f}"
    return f"{value:.5g}" if isinstance(value, float) else str(value)


def render(row: Claim, rows: Rows) -> str:
    """The row's numbers (one table per run of labels sharing columns),
    then every check as ``paper | ours | bound | ok``."""
    parts = [f"[{' + '.join(row.ids)}] {row.title} ({sample(row)})"]
    for columns, group in itertools.groupby(rows.items(),
                                            key=lambda kv: tuple(kv[1])):
        parts.append(format_table(
            ["", *columns],
            [[label, *map(_fmt, values.values())] for label, values in group]))
    checks = row.checks(rows)
    parts.append(format_table(
        ["check", "paper", "ours", "bound", "ok"],
        [[c.name, _fmt(c.paper), _fmt(c.ours), c.bound,
          "ok" if c.ok else "FAIL"] for c in checks],
        title=f"{sum(c.ok for c in checks)}/{len(checks)} checks hold"))
    return "\n\n".join(parts)
