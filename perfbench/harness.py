"""Run one workload: set-up, timed operations, correctness gate, metrics.

With ``trace=False`` the run reports the end-to-end metrics, measured
with no probe installed.  With ``trace=True`` the first third of the
measuring time runs untraced (the overhead baseline), then the probes
of :mod:`perfbench.probes` are installed for the rest and the run
reports per-layer metrics, each per timed operation.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import workloads
from perfbench.probes import OK_RATIO, PROBES, TIMED, ProbeSet, Recorder, Stat, restored

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("us_per_item_p50", "us"),
    ("items_per_s", "1/s"),
    ("rounds_over_lb", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: On a shared host the speed of one vCPU drifts by up to a third over
#: seconds to minutes (measured on the 2-vCPU VM of the baseline), far
#: more than the planner's own run-to-run spread.  Every end-to-end time is therefore measured between two runs
#: of a fixed reference loop and scaled to the speed at which that loop
#: takes ``REFERENCE_S`` (about its median time on the 2-vCPU 2.1 GHz
#: Xeon, CPython 3.11 host the baseline was measured on).  Raw wall
#: times are printed beside the scaled ones.
REFERENCE_ITERATIONS = 50_000
REFERENCE_S = 0.009

#: a run may overrun ``seconds`` to reach ``min_ops``, but never by more
#: than this factor.
OVERRUN = 4.0


@dataclass
class Phase:
    """The timed operations of one phase of a run."""

    walls: List[float] = field(default_factory=list)
    #: ``walls`` scaled to the nominal host speed (see :func:`host_speed`).
    scaled: List[float] = field(default_factory=list)
    outcomes: List[workloads.Outcome] = field(default_factory=list)
    failed: int = 0
    messages: List[str] = field(default_factory=list)


def _run_ops(wl: workloads.Workload, first: int, seconds: float, min_ops: int,
             max_ops: Optional[int], recorder: Optional[Recorder] = None) -> Phase:
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    i = first
    while True:
        done = i - first
        if max_ops is not None and done >= max_ops:
            break
        elapsed = clock() - start
        if max_ops is None and done >= min_ops and elapsed >= seconds:
            break
        if done >= 1 and elapsed >= OVERRUN * seconds:
            break
        try:
            call = wl.prepare(i)
            before = reference_loop()
            t0 = clock()
            output = call() if recorder is None else recorder.root("op", call)
            wall = clock() - t0
            speed = host_speed(before, reference_loop())
            outcome = wl.check(i, output)
        except Exception as exc:  # one failed operation must not end the run
            phase.failed += 1
            phase.messages.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            phase.walls.append(wall)
            phase.scaled.append(wall * speed)
            phase.outcomes.append(outcome)
            if outcome.failures:
                phase.failed += 1
                phase.messages.extend(outcome.failures)
        i += 1
    return phase


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop that uses no program code.

    Of the loops tried (this one, one with a 64k-entry working set, a
    greedy graph coloring) this one tracked the planner's own speed
    changes best: log-log slope 0.8, correlation 0.74.
    """
    t0 = time.perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    for k in range(REFERENCE_ITERATIONS):
        acc += k * k % 7
        table[k & 1023] = acc
    return time.perf_counter() - t0


def host_speed(before: float, after: float) -> float:
    """Factor that scales a wall time measured between two reference
    loops to the nominal host speed (the loop taking ``REFERENCE_S``)."""
    return REFERENCE_S / ((before + after) / 2.0)


def environment(root: Path) -> Dict[str, Any]:
    """Commit, interpreter, numpy and CPU count the run measured on."""
    import numpy

    commit = "unknown"
    if (root / ".git").exists():  # a plain source tree has no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(phase: Phase, setup_times: List[float], min_ops: int) -> Dict[str, float]:
    # The schedule-quality ratio covers the first ``min_ops`` operations,
    # which every run makes, so it depends on the seed alone.
    distinct: Dict[str, workloads.Outcome] = {}
    for outcome in phase.outcomes[:min_ops]:
        distinct.setdefault(outcome.key, outcome)
    rounds = sum(o.rounds for o in distinct.values())
    bound = sum(o.lower_bound for o in distinct.values())
    return {
        "us_per_item_p50": statistics.median(
            _ratio(scaled, o.items) for scaled, o in zip(phase.scaled, phase.outcomes)
        ) * 1e6,
        "items_per_s": _ratio(sum(o.items for o in phase.outcomes), sum(phase.scaled)),
        "rounds_over_lb": _ratio(rounds, bound),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def workload_detail(name: str, phase: Phase, attempted: int, failed: int) -> Dict[str, float]:
    """The workload-specific figures, printed above the result line."""
    walls = phase.walls
    total = sum(walls)
    detail: Dict[str, float] = {"ops": len(walls), "failed_frac": _ratio(failed, attempted)}
    if not walls:
        return detail
    detail["raw_op_p50_ms"] = statistics.median(walls) * 1000.0
    detail["host_speed_p50"] = statistics.median(
        scaled / wall for scaled, wall in zip(phase.scaled, walls)
    )
    if name.startswith("cold-"):
        detail["plan_p50_s"] = statistics.median(walls)
        detail["plan_items_per_s"] = _ratio(sum(o.items for o in phase.outcomes), total)
    elif name == "delta-stream":
        detail["delta_p50_ms"] = statistics.median(walls) * 1000.0
        if len(walls) >= 20:
            detail["delta_p90_ms"] = statistics.quantiles(walls, n=10)[8] * 1000.0
    elif name == "sim-campaign":
        extra = [o.extra for o in phase.outcomes]
        detail["sim_events_per_s"] = _ratio(sum(e["events"] for e in extra), total)
        detail["sim_repair_makespan_mean"] = _ratio(
            sum(e["makespan_sum"] for e in extra), sum(e["incidents"] for e in extra)
        )
    return detail


def _stat_triplet(metrics: Dict[str, float], name: str, stat: Stat, ops: int) -> None:
    metrics[f"{name}.s"] = stat.incl / ops
    metrics[f"{name}.self_s"] = stat.self_s / ops
    metrics[f"{name}.calls"] = stat.calls / ops


def per_layer(name: str, traced: Phase, untraced: Phase, recorder: Recorder) -> Dict[str, float]:
    """Per-layer metrics from one traced phase, each per timed operation."""
    ops = max(len(traced.walls), 1)
    stats = recorder.stats
    zero = Stat()
    get = lambda key: stats.get(key, zero)  # noqa: E731
    metrics: Dict[str, float] = {}
    for probe in PROBES:
        if probe.kind in (TIMED, OK_RATIO):
            _stat_triplet(metrics, probe.name, get(probe.name), ops)
    for probe_name in ("core.recolor.ArrayColoringState.try_color_edge",
                       "core.recolor.ArrayColoringState.attempt_flip"):
        stat = get(probe_name)
        metrics[f"{probe_name}.ok_ratio"] = _ratio(stat.ok, stat.calls)
    hits = misses = 0
    for cache in ("get_plan", "get_bound"):
        stat = get(f"pipeline.cache.{cache}")
        metrics[f"pipeline.cache.{cache}.hits"] = (stat.calls - stat.misses) / ops
        metrics[f"pipeline.cache.{cache}.misses"] = stat.misses / ops
        hits += stat.calls - stat.misses
        misses += stat.misses
    metrics["pipeline.cache.hit_ratio"] = _ratio(hits, hits + misses)
    metrics["core.lower_bounds.subset_bound.calls"] = get("core.lower_bounds.subset_bound").calls / ops
    attempts = get("solve.attempts").calls
    metrics["solve.attempts"] = attempts / ops
    metrics["solve.restarts"] = (attempts - get("pipeline.parallel.solve_job").calls) / ops

    for key in ("reused", "patched", "resolved", "patched_edges", "fallbacks"):
        metrics[f"delta.{key}"] = sum(o.extra.get(key, 0) for o in traced.outcomes) / ops

    op = get("op")
    plan = get("pipeline.planner.plan")
    build = get("sim.repair.build_repair_instance")
    is_sim = name == "sim-campaign"
    metrics["sim.plan.s"] = plan.incl / ops if is_sim else 0.0
    metrics["sim.plan.calls"] = plan.calls / ops if is_sim else 0.0
    metrics["sim.plan.share"] = _ratio(plan.incl, op.incl) if is_sim else 0.0
    metrics["sim.engine.self_s"] = (op.incl - plan.incl - build.incl) / ops if is_sim else 0.0
    makespans = [o.extra for o in traced.outcomes if "makespan_sum" in o.extra]
    metrics["sim.report.mean_repair_makespan"] = _ratio(
        sum(e["makespan_sum"] for e in makespans), sum(e["incidents"] for e in makespans)
    )

    # Root spans: plan() or plan_delta() time no wrapped layer covers.
    metrics["pipeline.plan.unaccounted_s"] = (
        plan.self_s + get("pipeline.delta.plan_delta").self_s
    ) / ops
    metrics["trace.overhead_s"] = (
        statistics.median(traced.walls) - statistics.median(untraced.walls)
        if traced.walls and untraced.walls else 0.0
    )
    metrics["trace.ops"] = float(len(traced.walls))
    return metrics


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    detail: Dict[str, float]
    messages: List[str]
    digests: List[str]

    def line(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


def per_layer_units(metrics: Dict[str, float]) -> Dict[str, str]:
    units = {}
    for name in metrics:
        if name.endswith((".s", "_s")):
            units[name] = "s"
        elif name.endswith(("ratio", ".share")):
            units[name] = "ratio"
        elif name == "sim.report.mean_repair_makespan":
            units[name] = "sim-s"
        else:
            units[name] = "count"
    return units


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        ops: Optional[int] = None) -> RunResult:
    """Run workload ``name`` once.

    ``ops`` fixes the number of timed operations (split one third
    untraced, the rest traced, when tracing) instead of measuring for
    ``seconds``; the benchmark's tests use it to compare runs op by op.
    """
    wl = workloads.make(name, seed, scale)
    setup_times = []
    for k in range(wl.setups):
        before = reference_loop()
        t0 = time.perf_counter()
        wl.setup(k)
        wall = time.perf_counter() - t0
        setup_times.append(wall * host_speed(before, reference_loop()))
    wl.warmup()

    messages: List[str] = []
    if not trace:
        measured = _run_ops(wl, 0, seconds, wl.min_ops, ops)
        phases = [measured]
    else:
        split_ops = None if ops is None else max(ops // 3, 1)
        untraced = _run_ops(wl, 0, seconds / 3.0, max(wl.min_ops // 3, 1), split_ops)
        recorder = Recorder()
        probes = ProbeSet(PROBES, recorder)
        targets = probes.targets()
        with probes:
            measured = _run_ops(
                wl, len(untraced.walls) + untraced.failed, seconds * 2.0 / 3.0,
                max(wl.min_ops - wl.min_ops // 3, 1),
                None if ops is None else ops - split_ops, recorder,
            )
        leak = restored(targets)
        if leak is not None:
            messages.append(leak)
        phases = [untraced, measured]

    finish = wl.finish()
    messages.extend(finish)
    attempted = sum(len(p.walls) + p.failed for p in phases)
    failed = sum(p.failed for p in phases) + len(finish)
    for p in phases:
        messages.extend(p.messages)
    correct = failed == 0 and not messages and bool(measured.walls)
    all_ops = Phase(walls=[w for p in phases for w in p.walls],
                    scaled=[w for p in phases for w in p.scaled],
                    outcomes=[o for p in phases for o in p.outcomes])
    detail = workload_detail(name, all_ops, attempted, failed)
    if not measured.walls:
        metrics: Dict[str, float] = {}
        units: Dict[str, str] = {}
    elif trace:
        metrics = per_layer(name, measured, phases[0], recorder)
        units = per_layer_units(metrics)
    else:
        metrics = end_to_end(measured, setup_times, wl.min_ops)
        units = dict(END_TO_END)
    return RunResult(
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        units=units,
        detail=detail,
        messages=messages,
        digests=[o.digest for o in all_ops.outcomes],
    )
