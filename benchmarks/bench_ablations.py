"""EXP-ABL — ablations of the design choices DESIGN.md calls out.

Three knobs are ablated on a fixed scenario mix:

1. **Round synchronization** — the paper's round model vs the eager
   (event-driven) executor under the same reserved-lane rate model.
2. **Flip engine** — the general algorithm vs pure first-fit
   (``greedy``): how many rounds the ab-path machinery saves.
3. **Completion-time reordering** — sum of completion times before and
   after the weight-ordered round permutation (makespan unchanged).
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.cluster.eager import EagerEngine
from repro import plan
from repro.extensions.completion_time import (
    reorder_rounds_by_weight,
    sum_completion_time,
)
from repro.workloads.generators import random_instance
from repro.workloads.scenarios import scale_out_scenario, vod_rebalance_scenario


def test_abl_round_sync_vs_eager(benchmark):
    table = Table(
        "EXP-ABL1: round-synchronized vs eager execution (reserved-lane rates)",
        ["scenario", "rounds", "round-model time", "eager time", "eager/rounds"],
    )
    for name, builder in (("vod", vod_rebalance_scenario), ("scale_out", scale_out_scenario)):
        # Round model under reserved shares (comparable to eager).
        scenario = builder(seed=21)
        sched = plan(scenario.instance).schedule
        graph = scenario.instance.graph
        round_time = 0.0
        for rnd in sched.rounds:
            worst = 0.0
            for eid in rnd:
                u, v = graph.endpoints(eid)
                du, dv = scenario.cluster.disk(u), scenario.cluster.disk(v)
                rate = min(du.bandwidth / du.transfer_limit, dv.bandwidth / dv.transfer_limit)
                item = scenario.cluster.items[scenario.context.edge_items[eid]]
                worst = max(worst, item.size / rate)
            round_time += worst
        eager_scenario = builder(seed=21)
        eager = EagerEngine(eager_scenario.cluster).execute(eager_scenario.context)
        table.add_row(name, sched.num_rounds, round_time, eager.total_time,
                      eager.total_time / round_time)
    emit(table)

    scenario = scale_out_scenario(seed=21)
    benchmark(EagerEngine(scenario.cluster).execute, scenario.context)


def test_abl_flip_engine_value(benchmark):
    table = Table(
        "EXP-ABL2: ab-path flip engine vs pure first-fit (rounds saved)",
        ["workload", "LB", "general", "greedy", "saved"],
    )
    # Near-regular graphs at c_v = 1 are the hard case for first-fit:
    # every node is equally saturated, so the last edges find no common
    # free color without recoloring.
    from repro.core.lower_bounds import lower_bound
    from repro.workloads.generators import regular_instance

    workloads = [
        ("20-node 8-regular", regular_instance(20, 8, capacity=1, seed=20)),
        ("30-node 12-regular", regular_instance(30, 12, capacity=1, seed=30)),
        ("40-node 16-regular", regular_instance(40, 16, capacity=1, seed=40)),
        ("random odd caps", random_instance(16, 400, capacities={1: 0.5, 3: 0.5}, seed=32)),
    ]

    for name, inst in workloads:
        general = plan(inst, method="general").schedule.num_rounds
        greedy = plan(inst, method="greedy").schedule.num_rounds
        table.add_row(name, lower_bound(inst), general, greedy, greedy - general)
        assert general <= greedy
    emit(table)

    inst = workloads[1][1]
    benchmark(plan, inst, "general")


def test_abl_even_rounding_vs_general(benchmark):
    """Is the orbit machinery worth it when capacities are odd-but-big?
    Rounding odd c_v down to even enables the exact Section IV
    algorithm at a (1 + 1/(c_min-1)) price; the general algorithm
    recovers that loss."""
    from repro.core.lower_bounds import lower_bound

    table = Table(
        "EXP-ABL4: even-rounding (exact substrate) vs the general algorithm",
        ["capacity set", "LB", "general", "even-rounding", "rounding penalty"],
    )
    for caps in ({3: 1.0}, {3: 0.5, 5: 0.5}, {5: 0.5, 9: 0.5}):
        inst = random_instance(14, 420, capacities=caps, seed=51)
        general = plan(inst, method="general").schedule.num_rounds
        rounded = plan(inst, method="even_rounding").schedule.num_rounds
        table.add_row(
            str(sorted(caps)), lower_bound(inst), general, rounded,
            rounded / general,
        )
        assert general <= rounded
        c_min = min(caps)
        assert rounded <= (1 + 1 / (c_min - 1)) * general + 2
    emit(table)

    inst = random_instance(14, 420, capacities={3: 0.5, 5: 0.5}, seed=51)
    benchmark(plan, inst, "even_rounding")


def test_abl_priority_scheduling_strategies(benchmark):
    """Three ways to serve weighted items early: post-hoc round
    reordering, item promotion, and priority-first greedy packing —
    weighted completion time vs makespan for each."""
    import random as _r

    from repro.extensions.completion_time import (
        promote_items,
        weighted_greedy_schedule,
        weighted_sum_completion_time,
    )

    table = Table(
        "EXP-ABL5: priority strategies — weighted completion time vs makespan",
        ["strategy", "rounds", "weighted SCT"],
    )
    inst = random_instance(10, 300, capacities={1: 0.4, 2: 0.4, 4: 0.2}, seed=61)
    rng = _r.Random(61)
    weights = {eid: rng.choice([1.0] * 9 + [50.0]) for eid in inst.graph.edge_ids()}

    base = plan(inst).schedule
    reordered = reorder_rounds_by_weight(base, weights)
    promoted = promote_items(reordered, inst, weights)
    greedy = weighted_greedy_schedule(inst, weights)
    for name, sched in (
        ("makespan as-is", base),
        ("+ round reorder", reordered),
        ("+ item promote", promoted),
        ("priority greedy", greedy),
    ):
        table.add_row(name, sched.num_rounds, weighted_sum_completion_time(sched, weights))
    emit(table)
    assert weighted_sum_completion_time(promoted, weights) <= (
        weighted_sum_completion_time(base, weights)
    )

    benchmark(weighted_greedy_schedule, inst, weights)


def test_abl_completion_reordering(benchmark):
    table = Table(
        "EXP-ABL3: round reordering for sum of completion times",
        ["workload", "rounds", "SCT as-scheduled", "SCT reordered", "reduction %"],
    )
    for seed in (41, 42, 43):
        inst = random_instance(14, 500, capacities={1: 0.4, 2: 0.4, 4: 0.2}, seed=seed)
        sched = plan(inst).schedule
        before = sum_completion_time(sched)
        after_sched = reorder_rounds_by_weight(sched)
        after = sum_completion_time(after_sched)
        table.add_row(
            f"random seed {seed}", sched.num_rounds, before, after,
            100.0 * (before - after) / before,
        )
        assert after <= before
        assert after_sched.num_rounds == sched.num_rounds
    emit(table)

    inst = random_instance(14, 500, capacities={1: 0.4, 2: 0.4, 4: 0.2}, seed=41)
    sched = plan(inst).schedule
    benchmark(reorder_rounds_by_weight, sched)
