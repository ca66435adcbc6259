"""Golden schedule digests: planner output bytes pinned across commits.

``golden_digests.json`` holds the SHA-256 digest (see
:func:`repro.checks.engine.schedule_digest`) of every certified
``plan(instance, method, seed)`` over the differential corpus, plus the
rounds, dispositions and bound of a fixed ``plan`` → ``plan_delta``
chain on a shared cache.  Any change to the bytes the planner emits
fails here, so a refactor that claims to keep every output can prove it.

A change that alters schedule bytes on purpose regenerates the fixture
with ``PYTHONPATH=src python -m tests.pipeline.test_golden_digests``
and says so.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.checks.engine import DEFAULT_CORPUS, schedule_digest
from repro.core.delta import InstanceDelta
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph
from repro.pipeline import PlanCache, plan, plan_delta

FIXTURE = Path(__file__).with_name("golden_digests.json")
SEEDS = (0, 1)
DELTA_SEED = 7


def corpus_digests() -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for name, method, factory in DEFAULT_CORPUS:
        for seed in SEEDS:
            result = plan(factory(), method=method, seed=seed, certify=True)
            out[f"{name}/seed{seed}"] = {
                "method": result.schedule.method,
                "rounds": result.schedule.num_rounds,
                "lower_bound": result.lower_bound,
                "digest": schedule_digest(result.schedule.rounds),
            }
    return out


def delta_instance(seed: int) -> MigrationInstance:
    """Six odd/even-capacity components of eight disks each."""
    rng = random.Random(seed)
    graph = Multigraph()
    caps = {}
    for k in range(6):
        names = [f"c{k}.d{i}" for i in range(8)]
        for name in names:
            graph.add_node(name)
            caps[name] = rng.choice((1, 2, 3))
        for i in range(7):
            graph.add_edge(names[i], names[i + 1])
        for _ in range(30):
            u, v = rng.sample(range(8), 2)
            graph.add_edge(names[u], names[v])
    return MigrationInstance(graph, caps)


DELTA = InstanceDelta(
    add_moves=(("c0.d0", "c0.d3"), ("c1.d2", "c1.d5")),
    remove_moves=(("c0.d0", "c0.d1"),),
    retarget_moves=(("c2.d0", "c2.d1", "c2.d4"),),
    capacity_changes=(("c3.d0", 2),),
)


def delta_chain() -> Dict[str, Any]:
    cache = PlanCache(max_entries=512)
    prior = plan(delta_instance(DELTA_SEED), "auto", 0, cache=cache, certify=True)
    result = plan_delta(prior, DELTA, cache=cache, certify=True)
    return {
        "rounds": [list(rnd) for rnd in result.schedule.rounds],
        "dispositions": list(result.dispositions),
        "bound": result.certificate.bound,
    }


def collect() -> Dict[str, Any]:
    return {"corpus": corpus_digests(), "delta": delta_chain()}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text())


def test_corpus_digests_unchanged(golden):
    assert corpus_digests() == golden["corpus"]


def test_delta_chain_unchanged(golden):
    assert delta_chain() == golden["delta"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
