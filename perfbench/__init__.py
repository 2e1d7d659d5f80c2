"""flowlag benchmark: workloads, closed-form output checks and per-module tracing.

Run it from the repository root with ``python3 perfbench/run.py --help``;
``perfbench/README.md`` describes the workloads and the metrics.
"""
