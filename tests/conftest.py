"""Shared test helpers: deterministic random instance factories."""

from __future__ import annotations

import dataclasses
import random
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

import pytest

from repro.checks.engine import REFERENCE_KERNELS, ReferenceFn
from repro.core.problem import MigrationInstance
from repro.core.recolor import ArrayColoringState, ColoringState
from repro.graphs.array_backend import CompactGraph
from repro.graphs.multigraph import EdgeId, Multigraph, Node
from repro.pipeline import registry
from repro.pipeline.registry import SolveFn


def _on_source(reference: ReferenceFn) -> SolveFn:
    """``reference`` with the registered solver signature."""
    return lambda ci, seed, stats: reference(ci.source, seed, stats)


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Register every solver of ``REFERENCE_KERNELS`` with its reference.

    ``backend_solver`` then runs the object reference kernels on the
    lowered instance's source, so a plan made inside is the reference
    plan.
    """
    with pytest.MonkeyPatch.context() as patch:
        for name, reference in REFERENCE_KERNELS.items():
            patch.setitem(
                registry._REGISTRY,
                name,
                dataclasses.replace(
                    registry.get_solver(name), solve=_on_source(reference)
                ),
            )
        yield


def keyed_state(
    key_space: str,
    graph: Multigraph,
    caps: Mapping[Node, int],
    q: int,
    seed: int = 0,
) -> Tuple["ColoringState[Any]", Callable[[EdgeId], int], Callable[[Node], Any]]:
    """``(state, edge_key, node_key)``: a coloring state in one key space.

    ``"label"`` keys the state by node labels and edge ids.  ``"index"``
    lowers ``graph`` the way ``lower_instance`` does, after re-enumerating
    its edges in descending id order so that edge index order, edge id
    order and node repr order all differ; the state is keyed by CSR
    indices.  ``edge_key`` / ``node_key`` map ids and labels to keys;
    ``state.edge_id`` / ``state.node_label`` map keys back.
    """
    if key_space == "label":
        return ColoringState(graph, caps, q, seed=seed), (lambda e: e), (lambda v: v)
    flipped = graph.edge_subgraph(sorted(graph.edge_ids(), reverse=True))
    compact = CompactGraph.from_multigraph(flipped)
    state = ArrayColoringState(compact, [caps[v] for v in compact.nodes], q, seed=seed)
    return state, compact.edge_index_of.__getitem__, compact.index_of.__getitem__


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
