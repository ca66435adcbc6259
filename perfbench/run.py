"""Command-line entry point of the benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-odd-dense --seed 1 --seconds 12 --trace 0

It plans with the checkout's own ``src/repro`` (nothing installed is
used), prints the environment and the workload's figures, and prints
as its last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  It exits with 1 when a check fails, and
with 2, printing no result, when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One thread: numpy kernels (the flow BFS) must not fan out.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from perfbench import harness, workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         scale=args.scale)
    env = harness.environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in result.detail.items():
        print(f"{args.workload} {name} {value:.6g}")
    for message in result.messages:
        print(f"FAILED {message}", file=sys.stderr)
    for name, value in result.metrics.items():
        print(f"{name} {value:.6g} {result.units[name]}")
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
