"""EXP-ENGINE — raw-speed comparison of the two solver kernels.

The flat CSR array kernels (:mod:`repro.graphs.array_backend` plus the
kernels registered in the solver registry) exist purely for speed:
each must produce the *same bytes* as its reference object kernel
(`repro-migrate check --engine` proves that differentially) while
solving large components many times faster.  This bench times the
reference kernel (from :data:`repro.checks.engine.REFERENCE_KERNELS`)
against the production solve path
(:func:`repro.pipeline.parallel.backend_solver`, lowering cost
included) for the solver ``repro.plan`` selects, on instances where
the solve stage dominates:

* the headline: a 100k-edge even-capacity random instance
  (Δ' ≈ 1600), where the object kernel's per-edge dict/object churn is
  the bottleneck and the array kernel targets **>= 10x**;
* a 30k-edge variant of the same family (mid-size scaling point);
* a 3000-node 68-regular configuration-model instance — small Δ',
  DFS-bound, reported honestly as the family where flat arrays help
  least.

Each run appends (or refreshes, keyed by commit) one entry in
``BENCH_ENGINE.json`` at the repo root, so the speedups accrete per
PR.  Run standalone with ``python -m benchmarks.bench_engine``;
``--quick`` runs the small smoke case only (the CI
``engine-bench-smoke`` job) and fails unless the array kernel wins.
Every case also re-asserts byte-identical rounds, so the speedup
numbers can never drift away from the equivalence contract.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.checks.engine import REFERENCE_KERNELS
from repro.core.problem import MigrationInstance
from repro.pipeline.parallel import backend_solver
from repro.pipeline.registry import select_solver
from repro.workloads.generators import random_instance, regular_instance

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_ENGINE.json"
BENCH_SCHEMA = "bench-engine/v1"

# The object kernel's Euler/Kempe recursions are deep on 100k-edge
# instances; the array kernel never recurses that far.
_RECURSION_LIMIT = 500_000


@dataclass(frozen=True)
class BenchCase:
    name: str
    factory: Callable[[], MigrationInstance]
    #: minimum acceptable array-over-object speedup (1.0 = "must win").
    target: float
    quick: bool = False


CASES: Tuple[BenchCase, ...] = (
    BenchCase(
        name="random-100k-even",
        factory=lambda: random_instance(
            64, 100_000, capacities={2: 0.5, 4: 0.5}, seed=7
        ),
        target=10.0,
    ),
    BenchCase(
        name="random-30k-even",
        factory=lambda: random_instance(
            64, 30_000, capacities={2: 0.5, 4: 0.5}, seed=7
        ),
        target=5.0,
    ),
    BenchCase(
        name="regular-3000x68",
        factory=lambda: regular_instance(3000, 68, capacity=2, seed=3),
        target=1.0,
    ),
    BenchCase(
        name="random-8k-even-smoke",
        factory=lambda: random_instance(
            32, 8_000, capacities={2: 0.5, 4: 0.5}, seed=7
        ),
        target=1.0,
        quick=True,
    ),
)


def run_case(case: BenchCase) -> Dict[str, object]:
    """Time both kernels of the selected solver on one instance.

    Same solver, same seed — the only variable is the kernel.  The
    reference run goes first so the production run can be checked
    byte-for-byte against it.
    """
    sys.setrecursionlimit(_RECURSION_LIMIT)
    instance = case.factory()
    spec = select_solver(instance)

    start = time.perf_counter()
    obj = REFERENCE_KERNELS[spec.name](instance, 0, None)
    object_seconds = time.perf_counter() - start

    start = time.perf_counter()
    arr = backend_solver(spec, instance)(0, None)
    array_seconds = time.perf_counter() - start

    identical = obj.rounds == arr.rounds and obj.method == arr.method
    return {
        "edges": instance.num_items,
        "disks": instance.num_disks,
        "delta_prime": instance.delta_prime(),
        "method": arr.method,
        "rounds": arr.num_rounds,
        "object_seconds": round(object_seconds, 3),
        "array_seconds": round(array_seconds, 3),
        "speedup": round(object_seconds / array_seconds, 2)
        if array_seconds > 0
        else 0.0,
        "target": case.target,
        "identical": identical,
    }


def collect_metrics(quick: bool = False) -> Dict[str, object]:
    """One BENCH_ENGINE.json metrics payload."""
    cases: Dict[str, object] = {}
    for case in CASES:
        if quick and not case.quick:
            continue
        if not quick and case.quick:
            continue
        cases[case.name] = run_case(case)
    return {"mode": "quick" if quick else "full", "cases": cases}


def _current_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=BENCH_FILE.parent,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def append_entry(metrics: Dict[str, object]) -> Dict[str, object]:
    """Append (or refresh, same commit) one entry in BENCH_ENGINE.json."""
    if BENCH_FILE.exists():
        data = json.loads(BENCH_FILE.read_text())
    else:
        data = {"schema": BENCH_SCHEMA, "entries": []}
    entry = {
        "commit": _current_commit(),
        "date": datetime.date.today().isoformat(),
        "metrics": metrics,
    }
    entries = [e for e in data["entries"] if e.get("commit") != entry["commit"]]
    entries.append(entry)
    data["entries"] = entries
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return entry


def _render_table(metrics: Dict[str, object]) -> Table:
    table = Table(
        "EXP-ENGINE: array kernel vs reference object kernel (solve wall time)",
        ["case", "edges", "Δ'", "method", "object (s)", "array (s)", "speedup"],
    )
    for name, row in metrics["cases"].items():  # type: ignore[union-attr]
        table.add_row(
            name, row["edges"], row["delta_prime"], row["method"],
            row["object_seconds"], row["array_seconds"], f'{row["speedup"]}x',
        )
    return table


def _check(metrics: Dict[str, object]) -> int:
    """0 when every case is byte-identical and meets its target."""
    failures = 0
    for name, row in metrics["cases"].items():  # type: ignore[union-attr]
        if not row["identical"]:
            print(f"FAIL {name}: kernels diverged (not byte-identical)")
            failures += 1
        if row["speedup"] < row["target"]:
            print(
                f"FAIL {name}: speedup {row['speedup']}x below the "
                f"{row['target']}x target"
            )
            failures += 1
    return failures


def test_engine_smoke(benchmark):
    metrics = collect_metrics(quick=True)
    emit(_render_table(metrics))
    assert _check(metrics) == 0

    instance = random_instance(32, 8_000, capacities={2: 0.5, 4: 0.5}, seed=7)
    spec = select_solver(instance)
    benchmark(lambda: backend_solver(spec, instance)(0, None))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="run the small smoke case only (CI engine-bench-smoke)",
    )
    args = parser.parse_args(argv)
    metrics = collect_metrics(quick=args.quick)
    print(_render_table(metrics).render())
    entry = append_entry(metrics)
    print(f"appended to {BENCH_FILE} (commit {entry['commit'][:12]})")
    return 1 if _check(metrics) else 0


if __name__ == "__main__":
    sys.exit(main())
