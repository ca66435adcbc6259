"""Runtime telemetry: counters, per-round timings, JSONL traces.

The executor reports what happened through three channels:

* the :class:`~repro.cluster.events.EventLog` (typed events, reused so
  Gantt rendering and existing metrics work unchanged);
* a :class:`RuntimeTelemetry` aggregate — named counters plus one
  record per executed round — that is part of the checkpoint, so
  resumed runs keep accumulating the same totals;
* an optional :class:`JsonlTraceWriter` — one JSON object per line,
  keys sorted, read back by :func:`repro.obs.export.load_trace` and
  folded by :func:`repro.analysis.metrics.summarize_runtime_trace`.

Telemetry is deliberately dumb: it never influences execution, so a
run with tracing disabled is bit-for-bit identical to one with it on.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry


class RuntimeTelemetry:
    """Named counters and per-round timing records.

    A thin adapter over :class:`repro.obs.metrics.MetricsRegistry`
    that adds the per-round record list and checkpoint round-tripping.
    Counter names are the module-level constants of
    :mod:`repro.obs.names` (``TRANSFERS_ATTEMPTED``,
    ``FAILURES_FAULT``, ``RETRIES``, ``REPLANS``, ...) — the executor,
    the metrics summarizers and the CLI all import the same constants,
    so a typo cannot silently zero a counter.
    """

    def __init__(self) -> None:
        self._metrics = MetricsRegistry()
        self._rounds: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self._metrics.counter(name).inc(n)

    @property
    def metrics(self) -> MetricsRegistry:
        """The underlying typed registry (for Prometheus export etc.)."""
        return self._metrics

    def record_round(
        self,
        round_index: int,
        start: float,
        duration: float,
        attempted: int,
        succeeded: int,
        failed: int,
    ) -> None:
        self._rounds.append(
            {
                "round": round_index,
                "start": start,
                "duration": duration,
                "attempted": attempted,
                "succeeded": succeeded,
                "failed": failed,
            }
        )

    # ------------------------------------------------------------------
    @property
    def counters(self) -> Dict[str, int]:
        """Counters in name order (deterministic)."""
        return self._metrics.counters

    @property
    def rounds(self) -> List[Dict[str, Any]]:
        return [dict(r) for r in self._rounds]

    def totals(self) -> Dict[str, Any]:
        """The comparison-stable summary of a run.

        Two runs of the same seeded configuration — interrupted/resumed
        or not — must produce equal ``totals()``.
        """
        return {
            "counters": self.counters,
            "rounds_executed": len(self._rounds),
            "total_duration": sum(r["duration"] for r in self._rounds),
        }

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, Any]:
        return {"counters": self.counters, "rounds": self.rounds}

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "RuntimeTelemetry":
        telemetry = cls()
        for name, value in state.get("counters", {}).items():
            telemetry.count(name, int(value))
        telemetry._rounds = [dict(r) for r in state.get("rounds", [])]
        return telemetry


class JsonlTraceWriter:
    """Structured trace: one sorted-key JSON object per line.

    Every record carries at least ``type`` and ``t`` (simulated time).
    The writer appends when resuming from a checkpoint so the combined
    file covers the whole logical run.
    """

    def __init__(self, path: str, append: bool = False):
        self.path = str(path)
        self._handle = open(self.path, "a" if append else "w")

    def emit(self, record: Mapping[str, Any]) -> None:
        self._handle.write(json.dumps(dict(record), sort_keys=True, default=str))
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
