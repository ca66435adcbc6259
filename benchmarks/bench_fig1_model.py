"""EXP-F1 — Figure 1: the transfer-graph model at scale.

Figure 1 illustrates a transfer instance: disks as nodes, one edge per
data item, parallel edges when several items move between the same
pair.  This bench builds transfer graphs of increasing size from raw
move lists, reports their structural statistics (multiplicity, Δ, Δ'),
and times instance construction + schedule validation — the model
plumbing every other experiment relies on.
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.core.lower_bounds import lb1
from repro import plan
from repro.workloads.generators import random_instance


def build(num_disks: int, num_items: int):
    return random_instance(
        num_disks, num_items, capacities={1: 0.3, 2: 0.4, 4: 0.3}, seed=17
    )


def test_fig1_model_statistics(benchmark):
    table = Table(
        "EXP-F1 (Figure 1): transfer-graph model statistics",
        ["disks", "items", "max multiplicity", "max degree", "Δ'", "validate ok"],
    )
    for n, m in ((5, 20), (20, 200), (50, 1000), (100, 5000)):
        inst = build(n, m)
        sched = plan(inst, method="greedy").schedule
        sched.validate(inst)
        table.add_row(
            n, m, inst.graph.max_multiplicity(), inst.graph.max_degree(), lb1(inst), "yes"
        )
    emit(table)
    benchmark(build, 50, 1000)


def test_bench_schedule_validation(benchmark):
    inst = build(50, 1000)
    sched = plan(inst, method="greedy").schedule

    def validate():
        sched.validate(inst)
        return sched.num_rounds

    assert benchmark(validate) >= lb1(inst)
