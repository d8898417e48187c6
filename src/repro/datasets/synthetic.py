"""Synthetic spatiotemporal signal generators.

The real PeMS/METR-LA files are Caltrans products we cannot redistribute, so
each domain gets a generator producing signals with the structure the models
must learn:

- **traffic**: a diurnal base profile (morning/evening rush) per sensor,
  weekly weekday/weekend modulation, spatially-correlated congestion events
  that diffuse along the sensor graph, small AR(1) noise, and a configurable
  missing-data rate recorded as zeros (PeMS encodes missing readings as 0,
  which is why DCRNN trains with a masked loss).
- **epidemiological**: stochastic SIR-style outbreaks seeded at random
  nodes, spreading along graph edges (chickenpox case counts).
- **energy**: a smooth wind-speed field (shared weather + local AR noise)
  pushed through a cubic power curve (windmill output).

All generators are deterministic in their seed and return float64 arrays in
the catalog's raw layout ``[entries, nodes, raw_features]``.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.sparse_kernels import PreparedCSR
from repro.graph.adjacency import SensorGraph
from repro.graph.supports import random_walk_matrix
from repro.utils.seeding import new_rng


def _ar1(rng: np.random.Generator, n: int, m: int, rho: float,
         scale: float) -> np.ndarray:
    """AR(1) noise, ``[n, m]`` with per-column independence."""
    eps = rng.standard_normal((n, m)) * scale * np.sqrt(1 - rho**2)
    out = np.empty((n, m))
    out[0] = rng.standard_normal(m) * scale
    for t in range(1, n):
        out[t] = rho * out[t - 1] + eps[t]
    return out


def traffic_signals(graph: SensorGraph, entries: int, *,
                    interval_minutes: int = 5, seed: int | str = 0,
                    free_flow_mph: float = 65.0,
                    missing_rate: float = 0.02) -> tuple[np.ndarray, np.ndarray]:
    """Generate traffic speeds ``[entries, nodes, 1]`` and timestamps.

    Speeds drop during rush hours; congestion events propagate to graph
    neighbours through one random-walk smoothing step per tick, giving the
    spatial correlation ST-GNNs exploit.
    """
    n = graph.num_nodes
    rng = new_rng("data", "traffic", graph.name, entries, seed)
    minutes = np.arange(entries, dtype=np.float64) * interval_minutes
    tod = (minutes % (24 * 60)) / (24 * 60)          # [entries] in [0,1)
    dow = (minutes // (24 * 60)) % 7                  # day of week

    # Per-sensor rush-hour severity and phase (arterial vs. freeway mix).
    am_sev = rng.uniform(5.0, 25.0, size=n)
    pm_sev = rng.uniform(5.0, 25.0, size=n)
    am_peak = rng.normal(8.0 / 24.0, 0.01, size=n)
    pm_peak = rng.normal(17.5 / 24.0, 0.01, size=n)
    width = rng.uniform(0.035, 0.06, size=n)

    def bump(center: np.ndarray, sev: np.ndarray) -> np.ndarray:
        d = tod[:, None] - center[None, :]
        d = np.minimum(np.abs(d), 1.0 - np.abs(d))   # wrap around midnight
        return sev[None, :] * np.exp(-(d / width[None, :]) ** 2)

    weekday = (dow < 5).astype(np.float64)[:, None]
    base = free_flow_mph + rng.normal(0, 2.0, size=n)[None, :]
    speeds = base - weekday * (bump(am_peak, am_sev) + bump(pm_peak, pm_sev))

    # Congestion shocks diffusing along the graph.  Lazy diffusion
    # (most mass stays at the epicenter, some leaks to neighbours) keeps
    # the shocks spatially local, so graph neighbours correlate more than
    # distant sensors — the structure ST-GNNs are built to exploit.
    # scipy's ``P.T @ x`` rebuilds the transpose on every tick; prepared
    # once, the same row-ordered product runs into one buffer, same bits.
    spread_op = PreparedCSR(random_walk_matrix(graph.weights).T, np.float64)
    spread = np.empty((n, 1))
    shock = np.zeros(n)
    shocks = np.empty((entries, n))
    events = rng.random(entries) < (0.5 * interval_minutes / 60.0)
    epicenters = rng.integers(0, n, size=entries)
    for t in range(entries):
        spread_op.matmul_out(shock[:, None], spread)
        np.multiply(spread, 0.12, out=spread)
        shock = np.multiply(shock, 0.80, out=shocks[t])
        shock += spread[:, 0]
        if events[t]:
            shock[epicenters[t]] += rng.uniform(10.0, 30.0)
    speeds = speeds - shocks

    speeds += _ar1(rng, entries, n, rho=0.85, scale=1.5)
    speeds = np.clip(speeds, 3.0, 80.0)

    # Missing readings are stored as zeros (as in raw PeMS extracts).
    mask = rng.random((entries, n)) < missing_rate
    speeds[mask] = 0.0
    return speeds[:, :, None], minutes


def epidemic_signals(graph: SensorGraph, entries: int, *,
                     interval_minutes: int = 7 * 24 * 60, seed: int | str = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Weekly case counts ``[entries, nodes, 1]`` from graph-coupled outbreaks."""
    n = graph.num_nodes
    rng = new_rng("data", "epidemic", graph.name, entries, seed)
    spread_op = PreparedCSR(random_walk_matrix(graph.weights).T, np.float64)
    pressure = np.empty((n, 1))
    minutes = np.arange(entries, dtype=np.float64) * interval_minutes

    infected = rng.uniform(0.5, 3.0, size=n)
    season_phase = rng.uniform(0, 2 * np.pi)
    counts = np.empty((entries, n))
    for t in range(entries):
        season = 1.0 + 0.6 * np.sin(2 * np.pi * t / 52.18 + season_phase)
        spread_op.matmul_out(infected[:, None], pressure)
        infected = (0.55 * infected + 0.4 * season * pressure[:, 0]
                    + rng.gamma(1.2, 0.4, size=n))
        infected = np.minimum(infected, 400.0)
        counts[t] = rng.poisson(np.maximum(infected, 0.0))
    return counts[:, :, None], minutes


def energy_signals(graph: SensorGraph, entries: int, *,
                   interval_minutes: int = 60, seed: int | str = 0
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Hourly normalised wind-farm output ``[entries, nodes, 1]``."""
    n = graph.num_nodes
    rng = new_rng("data", "energy", graph.name, entries, seed)
    minutes = np.arange(entries, dtype=np.float64) * interval_minutes

    # Shared synoptic weather + local turbulence.
    shared = _ar1(rng, entries, 1, rho=0.995, scale=3.0)
    local = _ar1(rng, entries, n, rho=0.9, scale=1.2)
    diurnal = 1.5 * np.sin(2 * np.pi * (minutes % (24 * 60)) / (24 * 60))[:, None]
    wind = 8.0 + shared + local + diurnal
    wind = np.clip(wind, 0.0, 30.0)

    # Cubic power curve with cut-in 3 m/s, rated 12 m/s, cut-out 25 m/s.
    power = np.clip((wind - 3.0) / (12.0 - 3.0), 0.0, 1.0) ** 3
    power[wind > 25.0] = 0.0
    return power[:, :, None], minutes


GENERATORS = {
    "traffic": traffic_signals,
    "epidemiological": epidemic_signals,
    "energy": energy_signals,
}
