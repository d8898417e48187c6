"""Experiment harness: one module per table and figure of the paper.

Every module exposes a ``run_*`` function returning a structured result
dataclass plus a ``report()`` method (or function) rendering the
paper-style table.  Benchmarks under ``benchmarks/`` call these functions
and assert the paper's qualitative shapes; the CLI
(``python -m repro.experiments <id>``) prints them.

Two execution modes appear:

- *real*: actual numpy training on scaled-down synthetic datasets
  (accuracy results: Tables 3/5/6, Figures 5/8).
- *simulated*: mechanistic memory replay + the calibrated analytic
  performance model at full PeMS scale (runtime/memory results:
  Tables 1/2/4, Figures 2/3/6/7/9/10).
"""
