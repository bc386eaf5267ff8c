"""Benchmark harness for the anytime-ab CLI.

Two workloads, each of two CLI commands, drive ``anytime-ab analyze``
and ``anytime-ab simulate`` in fresh interpreters, check every output
against an independent reference, and report end-to-end and per-layer
metrics. See README.md.
"""
