"""Benchmarks package: the claims-ledger checks (``test_claims.py``),
micro-benchmarks (pytest-benchmark) and the end-to-end benchmark under
``e2e/``."""
