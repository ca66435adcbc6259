"""The repository's benchmark: four planner workloads, end-to-end and per-layer metrics.

See ``perfbench/README.md`` for the workloads, the metrics and the
layer-to-metric map; ``perfbench/run.py`` is the entry point.
"""
