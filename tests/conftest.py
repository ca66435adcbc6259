"""Shared test helpers: deterministic random instance factories."""

from __future__ import annotations

import dataclasses
import random
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

import pytest

from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph
from repro.pipeline import registry


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Register every solver without its array kernel while inside.

    ``backend_solver`` then runs ``spec.solve`` — the object reference
    kernels — so a plan made inside is the reference plan.
    """
    with pytest.MonkeyPatch.context() as patch:
        for name, spec in list(registry._REGISTRY.items()):
            patch.setitem(
                registry._REGISTRY,
                name,
                dataclasses.replace(spec, solve_compact=None),
            )
        yield


def random_multigraph(
    num_nodes: int,
    num_edges: int,
    seed: int = 0,
    allow_isolated: bool = True,
) -> Multigraph:
    """A random loop-free multigraph with integer node names."""
    rng = random.Random(seed)
    nodes = list(range(num_nodes))
    graph = Multigraph(nodes=nodes if allow_isolated else [])
    for _ in range(num_edges):
        u, v = rng.sample(nodes, 2)
        graph.add_edge(u, v)
    return graph


def random_instance(
    num_nodes: int,
    num_edges: int,
    capacity_choices: Sequence[int] = (1, 2, 3, 4),
    seed: int = 0,
) -> MigrationInstance:
    """A random migration instance with a capacity mix."""
    rng = random.Random(seed)
    graph = random_multigraph(num_nodes, num_edges, seed=seed)
    caps = {v: rng.choice(list(capacity_choices)) for v in graph.nodes}
    return MigrationInstance(graph, caps)


def even_instance(
    num_nodes: int,
    num_edges: int,
    capacity_choices: Sequence[int] = (2, 4, 6),
    seed: int = 0,
) -> MigrationInstance:
    """A random instance whose capacities are all even."""
    assert all(c % 2 == 0 for c in capacity_choices)
    return random_instance(num_nodes, num_edges, capacity_choices, seed=seed)


@pytest.fixture
def triangle_instance() -> MigrationInstance:
    """The Figure 1/2 shape: K3 with parallel edges."""
    moves = [("a", "b"), ("a", "b"), ("b", "c"), ("a", "c"), ("a", "c")]
    return MigrationInstance.from_moves(moves, {"a": 2, "b": 1, "c": 2})
