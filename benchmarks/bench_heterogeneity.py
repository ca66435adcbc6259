"""EXP-HET — when does modeling heterogeneity pay, and by how much?

The paper's thesis: assuming one transfer per disk "will significantly
degrade the finish time … as a slow node can be a bottleneck".  Two
sweeps quantify the crossover:

* fleet modernization — fraction of disks upgraded from ``c = 1`` to
  ``c = 8``: the win over the homogeneous model grows with the upgrade
  fraction (slow nodes stop mattering only when work avoids them);
* capability spread — uniform fleets of growing ``c``: the win is the
  capacity factor itself.
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.core.lower_bounds import lower_bound
from repro import plan
from repro.workloads.generators import random_instance


def test_het_upgrade_fraction_sweep(benchmark):
    """With uniform traffic the speedup stays ≈1 until the *last* slow
    disk is upgraded — any c=1 disk touched by the migration pins Δ'.
    This plateau is exactly the paper's slow-node bottleneck claim;
    the jump at 100% shows what removing the bottleneck releases."""
    table = Table(
        "EXP-HET: speedup vs fraction of disks upgraded to c=8 (rest c=1; "
        "uniform traffic — note the slow-node plateau)",
        ["upgraded %", "LB", "auto rounds", "homogeneous rounds", "speedup"],
    )
    speedups = []
    for pct in (0, 25, 50, 75, 100):
        mix = {8: pct / 100.0, 1: 1 - pct / 100.0}
        mix = {c: f for c, f in mix.items() if f > 0}
        inst = random_instance(16, 480, capacities=mix, seed=100 + pct)
        auto = plan(inst).schedule.num_rounds
        homo = plan(inst, method="homogeneous").schedule.num_rounds
        speedups.append(homo / auto)
        table.add_row(pct, lower_bound(inst), auto, homo, homo / auto)
    emit(table)
    assert speedups[-1] > speedups[0]  # full upgrade buys the most
    assert speedups[0] == pytest.approx(1.0, abs=0.2)  # all-c=1 fleet: no win
    # The plateau: partial upgrades barely help under uniform traffic.
    assert all(s < 1.5 for s in speedups[:-1])

    inst = random_instance(16, 480, capacities={8: 0.5, 1: 0.5}, seed=150)
    benchmark(plan, inst)


def test_het_worst_disk_bottleneck(benchmark):
    """One slow disk in a fast fleet: its c_v pins LB1 whenever it is
    involved, which is the paper's slow-node bottleneck argument."""
    table = Table(
        "EXP-HETb: one c=1 straggler in a c=8 fleet",
        ["straggler degree share", "LB", "rounds", "binding disk"],
    )
    from repro.core.problem import MigrationInstance
    from repro.graphs.multigraph import Multigraph
    import random as _random

    for share in (0.05, 0.2, 0.5):
        rng = _random.Random(int(share * 100))
        nodes = [f"fast{i}" for i in range(10)] + ["slow"]
        graph = Multigraph(nodes=nodes)
        total = 400
        straggler_edges = int(total * share)
        for _ in range(straggler_edges):
            graph.add_edge("slow", rng.choice(nodes[:10]))
        while graph.num_edges < total:
            u, v = rng.sample(nodes[:10], 2)
            graph.add_edge(u, v)
        caps = {v: 8 for v in nodes[:10]}
        caps["slow"] = 1
        inst = MigrationInstance(graph, caps)
        sched = plan(inst).schedule
        slow_binds = inst.constrained_degree("slow") == inst.delta_prime()
        table.add_row(share, lower_bound(inst), sched.num_rounds,
                      "slow" if slow_binds else "fast fleet")
        if share >= 0.2:
            assert slow_binds
    emit(table)

    benchmark(plan, inst)
