"""Scale presets for the real-training experiment pipeline.

The paper trains on real PeMS-family data with hundreds to thousands of
sensors for 30-100 epochs; this repository's real-training runs use
scaled-down synthetic datasets so they complete in seconds to minutes.
``Scale`` collects the knobs; the *shape* conclusions (who wins, by what
factor) are scale-invariant because both batching modes consume literally
identical snapshots.

``RunSpec.scale`` refers to presets by name so specs stay serializable;
``run(spec, scale=...)`` takes an ad-hoc :class:`Scale` directly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    """Working sizes for a real-training experiment."""

    name: str
    nodes: int
    entries: int
    epochs: int
    hidden_dim: int
    batch_size: int
    horizon: int | None = None  # None: use the dataset's catalog horizon


#: Fast enough for CI / pytest-benchmark runs (seconds per experiment).
TINY = Scale("tiny", nodes=8, entries=260, epochs=4, hidden_dim=8,
             batch_size=8, horizon=4)

#: A few minutes per experiment; smoother convergence curves.
SMALL = Scale("small", nodes=24, entries=1200, epochs=12, hidden_dim=16,
              batch_size=16, horizon=12)

#: The closest practical approximation of the paper's setups on a laptop.
MEDIUM = Scale("medium", nodes=64, entries=4000, epochs=30, hidden_dim=32,
               batch_size=32, horizon=12)

SCALES = {s.name: s for s in (TINY, SMALL, MEDIUM)}

def get_scale(name: str | Scale) -> Scale:
    if isinstance(name, Scale):
        return name
    if name not in SCALES:
        raise KeyError(f"unknown scale {name!r}; options: {sorted(SCALES)}")
    return SCALES[name]
