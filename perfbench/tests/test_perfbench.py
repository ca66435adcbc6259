"""The benchmark's own tests, at tiny input sizes.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import repro  # noqa: E402
import repro.pipeline.delta  # noqa: E402
import repro.pipeline.planner  # noqa: E402
import repro.pipeline.stages  # noqa: E402
from repro.core.schedule import MigrationSchedule  # noqa: E402
from perfbench import harness, workloads  # noqa: E402
from perfbench.probes import PROBES, ProbeSet, Recorder, restored  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: never used while the benchmark was tuned; the gate must hold here too.
HELD_OUT_SEED = 90210

OPS = {"cold-odd-dense": 3, "cold-even-sparse": 3, "delta-stream": 6, "sim-campaign": 3}


def tiny(name: str, trace: bool, seed: int = 1) -> harness.RunResult:
    return harness.run(name, seed, 1.0, trace, scale="tiny", ops=OPS[name])


@pytest.fixture(scope="module")
def traced():
    return {name: tiny(name, True) for name in workloads.NAMES}


@pytest.fixture(scope="module")
def untraced():
    return {name: tiny(name, False) for name in workloads.NAMES}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(harness.END_TO_END)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_end_to_end_metric_emitted_with_unit(untraced, name):
    result = untraced[name]
    assert result.correct, result.messages
    line = result.line()
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_per_layer_metric_emitted_with_unit(traced, name):
    result = traced[name]
    assert result.correct, result.messages
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result.line()["metrics"].items()} == expected


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_and_untraced_schedules_identical(traced, untraced, name):
    assert traced[name].digests == untraced[name].digests
    assert len(traced[name].digests) == OPS[name]


def test_bypass_predictions(traced):
    odd = traced["cold-odd-dense"].metrics
    even = traced["cold-even-sparse"].metrics
    assert odd["graphs.matching.QuotaPeeler.peel.calls"] == 0
    assert odd["core.recolor.ArrayColoringState.common_missing_color.calls"] > 0
    assert even["core.recolor.ArrayColoringState.common_missing_color.calls"] == 0
    assert even["graphs.matching.QuotaPeeler.peel.calls"] > 0


def test_layers_reached_where_expected(traced):
    delta = traced["delta-stream"].metrics
    assert delta["pipeline.delta.plan_delta.calls"] == 1
    assert delta["core.lower_bounds.lb2_exact_witness.calls"] > 0
    assert delta["pipeline.cache.get_plan.hits"] > 0
    sim = traced["sim-campaign"].metrics
    assert sim["sim.plan.calls"] > 0
    assert 0 < sim["sim.plan.share"] < 1
    # decompose is reached through the planner's own binding of it.
    assert traced["cold-even-sparse"].metrics["pipeline.stages.decompose.calls"] == 2


def test_wrappers_restored_by_identity():
    originals = {
        "stages": repro.pipeline.stages.decompose,
        "planner": repro.pipeline.planner.decompose,
        "delta": repro.pipeline.delta.decompose,
        "plan": repro.plan,
    }
    probes = ProbeSet(PROBES, Recorder())
    targets = probes.targets()
    bound_in = {owner.__name__ for probe, owner, _n, _o in targets
                if probe.name == "pipeline.stages.decompose"}
    assert {"repro.pipeline.stages", "repro.pipeline.planner",
            "repro.pipeline.delta"} <= bound_in
    with probes:
        assert repro.pipeline.planner.decompose is not originals["planner"]
        assert repro.pipeline.delta.decompose is not originals["delta"]
        assert repro.plan is not originals["plan"]
        assert restored(targets) is not None
    assert restored(targets) is None
    assert repro.pipeline.stages.decompose is originals["stages"]
    assert repro.pipeline.planner.decompose is originals["planner"]
    assert repro.pipeline.delta.decompose is originals["delta"]
    assert repro.plan is originals["plan"]


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])  # root start, child start/end, root end
    rec = Recorder(clock=lambda: next(ticks))
    child = rec.span("child", lambda: None)
    rec.root("op", child)
    assert rec.stats["op"].incl == 10.0
    assert rec.stats["op"].self_s == 8.0
    assert rec.stats["child"].self_s == 2.0
    # Outside a root span a probe passes straight through.
    child()
    assert rec.stats["child"].calls == 1


def test_rounds_over_lb_matches_direct_plans():
    wl = workloads.make("cold-odd-dense", 1, "tiny")
    for k in range(wl.setups):
        wl.setup(k)
    direct = [repro.plan(inst, seed=s, certify=True) for s, inst in wl.instances]
    expected = sum(r.num_rounds for r in direct) / sum(r.lower_bound for r in direct)
    result = harness.run("cold-odd-dense", 1, 1.0, False, scale="tiny", ops=wl.min_ops)
    assert result.metrics["rounds_over_lb"] == pytest.approx(expected)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_held_out_seed_passes_the_gate(name):
    result = tiny(name, False, seed=HELD_OUT_SEED)
    assert result.correct and result.failed == 0, result.messages


def test_gate_catches_a_wrong_schedule(monkeypatch):
    real = repro.plan

    def dropping(*args, **kwargs):
        result = real(*args, **kwargs)
        rounds = result.schedule.rounds
        result.schedule = MigrationSchedule([rounds[0][1:]] + rounds[1:])
        return result

    monkeypatch.setattr(repro, "plan", dropping)
    result = harness.run("cold-odd-dense", 1, 1.0, False, scale="tiny", ops=4)
    assert not result.correct and result.failed > 0


def test_cli_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "cold-odd-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_cli_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "delta-stream",
         "--seed", "3", "--seconds", "0.5", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
