"""Benchmarks package: the paper's table/figure shape tests
(pytest-benchmark) and the end-to-end benchmark under ``e2e/``."""
