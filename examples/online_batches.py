#!/usr/bin/env python
"""Online migration: batches arriving while earlier work still runs.

Three reconfiguration bursts hit a small cluster two rounds apart.
The replanning policy merges all pending moves and re-runs the paper's
scheduler every round; FIFO drains batch-by-batch. Replanning
interleaves unrelated work into slack rounds and cuts response times.

Run:  python examples/online_batches.py
"""

import random

from repro.extensions.online import arrivals_to_deltas, run_online


def main() -> None:
    rng = random.Random(42)
    disks = [f"disk{i}" for i in range(8)]
    capacities = {d: rng.choice([1, 2, 4]) for d in disks}

    arrivals = {}
    for burst, round_no in enumerate((0, 2, 4)):
        batch = []
        while len(batch) < 25:
            u, v = rng.sample(disks, 2)
            batch.append((u, v))
        arrivals[round_no] = batch
        print(f"burst {burst}: {len(batch)} moves arrive at round {round_no}")

    print(f"\ncapacities: { {d: capacities[d] for d in sorted(disks)} }\n")
    stream = arrivals_to_deltas(arrivals)
    for policy in ("replan", "fifo"):
        report = run_online(stream, capacities, policy=policy)
        print(f"policy={policy:7s} makespan={report.makespan:3d} rounds  "
              f"mean response={report.mean_response:5.2f}  "
              f"max response={report.max_response:3d}  "
              f"plans computed={report.plans_computed}")

    print("\nreplanning pays a plan per round to keep response times low;")
    print("FIFO computes one plan per batch but convoys later arrivals.")


if __name__ == "__main__":
    main()
