#!/usr/bin/env python
"""Quickstart: schedule a small heterogeneous migration.

Builds the paper's running example by hand — a handful of disks with
different transfer constraints and a batch of items to move — and asks
the library for a minimum-round schedule, first through the one-call
legacy API and then through the staged planning pipeline, which also
reports *how* the plan was made.

Run:  python examples/quickstart.py
"""

from repro import MigrationInstance, lower_bound, plan


def main() -> None:
    # Ten data items to move between four disks.  `nvme` is new
    # hardware that can run four transfers at once; `old` disks one.
    moves = [
        ("old1", "nvme"), ("old1", "nvme"), ("old1", "nvme"),
        ("old2", "nvme"), ("old2", "nvme"),
        ("old1", "old2"),
        ("old2", "mid"), ("mid", "nvme"),
        ("mid", "old1"), ("nvme", "mid"),
    ]
    capacities = {"old1": 1, "old2": 1, "mid": 2, "nvme": 4}
    instance = MigrationInstance.from_moves(moves, capacities)

    print(f"instance: {instance}")
    print(f"lower bound (max of LB1/LB2): {lower_bound(instance)} rounds")

    schedule = plan(instance).schedule  # auto: picks the right algorithm
    print(f"scheduler used: {schedule.method}")
    print(f"schedule length: {schedule.num_rounds} rounds\n")

    graph = instance.graph
    for i, round_edges in enumerate(schedule.rounds):
        transfers = ", ".join(
            "{}->{}".format(*graph.endpoints(eid)) for eid in sorted(round_edges)
        )
        print(f"  round {i}: {transfers}")

    # The schedule is validated internally, but you can re-check:
    schedule.validate(instance)
    print("\nschedule validates: every item moves once, no disk ever "
          "exceeds its transfer constraint.")

    # The staged pipeline returns the same schedule plus provenance:
    # which solver handled each connected component, what each stage
    # cost, and (with certify=True) a machine-checked lower bound.
    result = plan(instance, certify=True)
    print("\nplanning pipeline:")
    for comp in result.components:
        print(f"  component {comp.index}: {comp.num_disks} disks, "
              f"{comp.num_items} items -> {comp.method} "
              f"({comp.rounds} rounds)")
    print("  stage timings: " + ", ".join(
        f"{stage} {seconds * 1e3:.2f}ms"
        for stage, seconds in result.stage_timings.items()
    ))
    print(f"  certified lower bound: {result.lower_bound} rounds "
          f"(optimal: {result.certified_optimal})")


if __name__ == "__main__":
    main()
