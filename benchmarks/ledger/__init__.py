"""Perf ledger: five workloads, checked outputs, per-layer attribution.

See README.md in this directory. ``run.py`` is the single-workload entry
point BENCHMARK.json names; ``python -m benchmarks.ledger`` runs all five
workloads, each in its own child process.
"""
