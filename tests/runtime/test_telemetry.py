"""Tests for runtime telemetry and the JSONL trace pipeline."""

import json

from repro.analysis.metrics import summarize_runtime_trace
from repro import plan
from repro.runtime import (
    DiskCrash,
    FaultPlan,
    JsonlTraceWriter,
    MigrationExecutor,
    RuntimeTelemetry,
    load_trace,
)
from repro.workloads.scenarios import decommission_scenario


class TestRuntimeTelemetry:
    def test_counters_accumulate_and_sort(self):
        telemetry = RuntimeTelemetry()
        telemetry.count("zeta")
        telemetry.count("alpha", 2)
        telemetry.count("zeta", 3)
        assert telemetry.counters == {"alpha": 2, "zeta": 4}
        assert list(telemetry.counters) == ["alpha", "zeta"]

    def test_totals(self):
        telemetry = RuntimeTelemetry()
        telemetry.record_round(0, 0.0, 1.5, 4, 3, 1)
        telemetry.record_round(1, 1.5, 2.0, 2, 2, 0)
        totals = telemetry.totals()
        assert totals["rounds_executed"] == 2
        assert totals["total_duration"] == 3.5

    def test_state_round_trip(self):
        telemetry = RuntimeTelemetry()
        telemetry.count("retries", 5)
        telemetry.record_round(0, 0.0, 1.0, 3, 2, 1)
        restored = RuntimeTelemetry.from_state(
            json.loads(json.dumps(telemetry.get_state()))
        )
        assert restored.totals() == telemetry.totals()
        assert restored.rounds == telemetry.rounds


class TestJsonlTrace:
    def test_writer_emits_sorted_key_jsonl(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTraceWriter(path) as writer:
            writer.emit({"type": "x", "t": 1.0, "b": 2, "a": 1})
        raw = open(path).read()
        assert raw == '{"a": 1, "b": 2, "t": 1.0, "type": "x"}\n'
        assert load_trace(path) == [{"a": 1, "b": 2, "t": 1.0, "type": "x"}]

    def test_append_mode_extends(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTraceWriter(path) as writer:
            writer.emit({"type": "first"})
        with JsonlTraceWriter(path, append=True) as writer:
            writer.emit({"type": "second"})
        assert [r["type"] for r in load_trace(path)] == ["first", "second"]


class TestTraceAnalysisPipeline:
    def test_summary_matches_executor_report(self, tmp_path):
        """analysis.metrics reconstructs the run from the trace alone."""
        path = str(tmp_path / "run.jsonl")
        scenario = decommission_scenario(seed=1)
        with JsonlTraceWriter(path) as trace:
            ex = MigrationExecutor(
                scenario.cluster,
                scenario.context,
                plan(scenario.instance).schedule,
                faults=FaultPlan(
                    transfer_failure_rate=0.15, crashes=(DiskCrash("new-2", 5.0),)
                ),
                seed=7,
                trace=trace,
            )
            report = ex.run()
        assert report.finished

        summary = summarize_runtime_trace(load_trace(path))
        counters = report.telemetry.counters
        assert summary.finished
        assert summary.rounds == report.rounds_executed
        assert summary.completion_time == report.total_time
        assert summary.attempts == counters["transfers_attempted"]
        assert summary.failed == counters.get("transfers_failed", 0)
        assert summary.retries == counters.get("retries", 0)
        assert summary.defers == counters.get("defers", 0)
        assert summary.replans == report.replans
        assert summary.stranded == len(report.stranded)
        assert summary.crashes == counters.get("disk_crashes", 0)
        delivered_in_place = counters.get("items_retargeted_in_place", 0)
        assert summary.delivered == len(report.delivered)
        assert summary.delivered == (
            counters["transfers_succeeded"] + delivered_in_place
        )
        assert 0.0 < summary.goodput <= 1.0

    def test_tracing_does_not_change_the_run(self, tmp_path):
        """Telemetry is observational: trace on/off, same outcome."""
        results = []
        for trace in (None, JsonlTraceWriter(str(tmp_path / "x.jsonl"))):
            scenario = decommission_scenario(seed=2)
            ex = MigrationExecutor(
                scenario.cluster,
                scenario.context,
                plan(scenario.instance).schedule,
                faults=FaultPlan(transfer_failure_rate=0.2),
                seed=3,
                trace=trace,
            )
            ex.run()
            if trace is not None:
                trace.close()
            results.append((ex.telemetry.totals(), scenario.cluster.layout.as_dict()))
        assert results[0] == results[1]

    def test_summary_folds_resumed_trace(self, tmp_path):
        """A trace appended across kill/resume sums like one run."""
        from repro.runtime import restore_executor, save_checkpoint, load_checkpoint

        path = str(tmp_path / "run.jsonl")
        ckpt = str(tmp_path / "run.ckpt")
        faults = FaultPlan(transfer_failure_rate=0.15)

        scenario = decommission_scenario(seed=1)
        trace = JsonlTraceWriter(path)
        ex = MigrationExecutor(
            scenario.cluster,
            scenario.context,
            plan(scenario.instance).schedule,
            faults=faults,
            seed=7,
            trace=trace,
        )
        ex.run(max_rounds=5)
        save_checkpoint(ckpt, ex)
        trace.close()

        _config, state = load_checkpoint(ckpt)
        cluster = decommission_scenario(seed=1).cluster
        trace2 = JsonlTraceWriter(path, append=True)
        resumed = restore_executor(cluster, state, faults=faults, seed=7, trace=trace2)
        report = resumed.run()
        trace2.close()
        assert report.finished

        summary = summarize_runtime_trace(load_trace(path))
        assert summary.finished
        assert summary.rounds == report.rounds_executed
        assert summary.delivered == len(report.delivered)
