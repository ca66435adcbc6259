"""Smoke tests: the shipped examples and the online benchmark still run.

These scripts call the public API the way users do, so a removed or
renamed spelling breaks them without failing any unit test.  Each one
is run end to end here.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert any(p.name == "online_batches.py" for p in EXAMPLES)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_online_benchmark_runs(monkeypatch):
    from benchmarks import bench_online

    tables = []
    monkeypatch.setattr(bench_online, "emit", tables.append)

    def run_once(fn, *args):
        return fn(*args)

    bench_online.test_onl_policy_comparison(run_once)
    bench_online.test_onl_replan_beats_fifo_on_cross_batch_slack(run_once)
    assert len(tables) == 2
