"""Optimus-CC end-to-end benchmark: workloads, tracing and metrics (see README.md)."""
