"""EXP-REC — failure recovery: re-replication speed by scheduler.

The paper's introduction: after disk failures the system must "quickly
redistribute or recover data".  With ``r``-way replication, the time to
re-replicate after a disk loss is the window during which a second
failure loses data — so the scheduler choice has direct durability
impact.  The table builds replicated clusters, kills a disk, plans the
re-replication copies, and compares round counts across schedulers.
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.cluster.disk import Disk
from repro.cluster.item import DataItem
from repro.cluster.network import FabricTopology
from repro.cluster.replication import (
    place_replicated,
    recovery_moves,
    recovery_moves_balanced,
    validate_replication,
)
from repro.core.lower_bounds import lower_bound
import repro


def build_recovery(num_disks: int, num_items: int, limit_mix, placement_seed=7,
                   planner=recovery_moves):
    disks = [
        Disk(disk_id=f"d{i}", transfer_limit=limit_mix[i % len(limit_mix)])
        for i in range(num_disks)
    ]
    topo = FabricTopology.striped([d.disk_id for d in disks], racks=3,
                                  uplink_bandwidth=8.0)
    items = {f"i{k}": DataItem(item_id=f"i{k}") for k in range(num_items)}
    layout = place_replicated(
        items, disks, replicas=2, topology=topo, seed=placement_seed
    )
    survivors = [d for d in disks if d.disk_id != "d0"]
    plan = planner(layout, "d0", survivors, topology=topo)
    return layout, plan


def test_rec_scheduler_comparison(benchmark):
    table = Table(
        "EXP-REC: re-replication after losing one of N disks "
        "(balanced = min-cost-flow target assignment)",
        ["disks", "items", "copies", "LB", "auto", "balanced targets",
         "homogeneous"],
    )
    for n, m in ((8, 120), (16, 600), (32, 2400)):
        _layout, plan = build_recovery(n, m, limit_mix=(1, 2, 4))
        inst = plan.instance
        auto = repro.plan(inst).schedule.num_rounds
        homo = repro.plan(inst, method="homogeneous").schedule.num_rounds
        _lb2, balanced_plan = build_recovery(
            n, m, limit_mix=(1, 2, 4), planner=recovery_moves_balanced
        )
        balanced = repro.plan(balanced_plan.instance).schedule.num_rounds
        table.add_row(
            n, m, plan.num_copies, lower_bound(inst), auto, balanced, homo,
        )
        assert auto <= homo
        assert balanced <= auto
    emit(table)

    _layout, plan = build_recovery(16, 600, limit_mix=(1, 2, 4))
    benchmark(repro.plan, plan.instance)


def test_rec_placement_spread_ablation(benchmark):
    """Deterministic tie-breaking pairs the same disks repeatedly, so a
    failure's recovery serializes behind one partner; randomized
    partners parallelize it (why production placement randomizes)."""
    table = Table(
        "EXP-RECb: recovery rounds — deterministic vs randomized replica partners",
        ["placement", "copies", "LB", "recovery rounds"],
    )
    results = {}
    for label, seed in (("deterministic", None), ("randomized", 7)):
        _layout, plan = build_recovery(9, 240, limit_mix=(4, 1, 1), placement_seed=seed)
        rounds = repro.plan(plan.instance).schedule.num_rounds
        results[label] = rounds
        table.add_row(label, plan.num_copies, lower_bound(plan.instance), rounds)
    emit(table)
    assert results["randomized"] <= results["deterministic"]

    benchmark(build_recovery, 9, 240, (4, 1, 1))


def test_rec_replication_invariants(benchmark):
    layout, _plan = build_recovery(16, 600, limit_mix=(2, 4))
    validate_replication(layout, replicas=2)

    def kernel():
        lay, plan = build_recovery(16, 600, limit_mix=(2, 4))
        return plan.num_copies

    assert benchmark(kernel) > 0
