"""End-to-end benchmark: four wall-clock workloads, measured from outside.

``python -m benchmarks.e2e`` (or ``python3 benchmarks/e2e/run.py``) is the
one command; see ``README.md`` in this directory and ``BENCHMARK.json`` at
the repository root.
"""
