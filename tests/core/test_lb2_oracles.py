"""Witness identity and operation-count gates for the LB2 kernels.

The exact LB2 enumeration, the capacity-aware peel and the B&B prune
table are checked against the reference forms in :mod:`tests.lb_oracles`
on seeded random instances: same witness subset, same value, same
table.  The gates count operations, never wall time.
"""

import random

import pytest

from repro.core import lower_bounds
from repro.core.lower_bounds import _peel, lb2_exact_witness
from repro.core.problem import MigrationInstance
from repro.exact.search import MAX_TRACKED_SUBSETS, _dense_subsets
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import Multigraph
from tests import lb_oracles


def _random_instance(seed, min_nodes, max_nodes, edge_factor):
    """A connected-ish random multigraph with a mixed capacity fleet."""
    rng = random.Random(seed)
    n = rng.randint(min_nodes, max_nodes)
    names = [f"d{i}" for i in rng.sample(range(100), n)]
    graph = Multigraph(nodes=names)
    for _ in range(rng.randint(1, edge_factor * n)):
        u, v = rng.sample(names, 2)
        graph.add_edge(u, v)
    fleet = rng.choice([(1,), (1, 3), (1, 2, 4), (1, 1, 3, 5), (2, 3)])
    return MigrationInstance(graph, {v: rng.choice(fleet) for v in names})


SMALL_SEEDS = range(220)
PEEL_SEEDS = range(1000, 1220)


def test_exact_witness_matches_subset_bound_loop():
    for seed in SMALL_SEEDS:
        instance = _random_instance(seed, 2, 12, 3)
        assert lb2_exact_witness(instance) == lb_oracles.lb2_exact_witness(instance), seed


@pytest.mark.parametrize("seed", range(4))
def test_exact_witness_matches_at_the_node_limit(seed):
    instance = _random_instance(seed, 14, 14, 2)
    assert lb2_exact_witness(instance) == lb_oracles.lb2_exact_witness(instance)


def test_prune_table_matches_edge_rescan():
    for seed in SMALL_SEEDS:
        instance = _random_instance(seed, 2, 10, 3)
        ci = lower_instance(instance)
        expected = lb_oracles.dense_subsets(ci, MAX_TRACKED_SUBSETS)
        assert _dense_subsets(ci) == expected, seed


def test_peel_matches_min_scan():
    for seed in PEEL_SEEDS:
        instance = _random_instance(seed, 15, 60, 4)
        for component in instance.graph.connected_components():
            if len(component) > 1:
                assert _peel(instance, component) == lb_oracles.peel(
                    instance, component
                ), seed


def test_exact_paths_never_call_subset_bound(monkeypatch):
    instance = _random_instance(7, 10, 10, 4)
    ci = lower_instance(instance)
    witness = lb_oracles.lb2_exact_witness(instance)
    table = lb_oracles.dense_subsets(ci, MAX_TRACKED_SUBSETS)

    def boom(*_args, **_kwargs):
        raise AssertionError("subset_bound called on the exact path")

    monkeypatch.setattr(lower_bounds, "subset_bound", boom)
    assert lb2_exact_witness(instance) == witness
    assert _dense_subsets(ci) == table


def test_zero_capacity_subset_still_raises():
    # c_v >= 1 makes this unreachable through the validating
    # constructor; build the instance around it to pin the contract.
    graph = Multigraph(nodes=["a", "b", "c"])
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    instance = MigrationInstance.__new__(MigrationInstance)
    instance._graph = graph
    instance._capacities = {"a": 1, "b": 0, "c": 0}
    instance._objective = None
    with pytest.raises(ValueError) as expected:
        lb_oracles.lb2_exact_witness(instance)
    # The first offending subset in enumeration order is the one named.
    with pytest.raises(ValueError, match=r"\['a', 'b', 'c'\] has internal edges"):
        lb2_exact_witness(instance)
    assert "['a', 'b', 'c']" in str(expected.value)


class _CountingHeapq:
    """Stands in for the ``heapq`` module inside ``lower_bounds``."""

    def __init__(self, real):
        self.real = real
        self.pops = 0

    def heapify(self, heap):
        self.real.heapify(heap)

    def heappush(self, heap, item):
        self.real.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return self.real.heappop(heap)


def test_heap_peel_pops_at_most_n_plus_m_on_a_long_odd_cycle(monkeypatch):
    n = 3001
    names = [f"v{i}" for i in range(n)]
    graph = Multigraph(nodes=names)
    for i in range(n):
        graph.add_edge(names[i], names[(i + 1) % n])
    instance = MigrationInstance(graph, {v: 1 for v in names})
    counting = _CountingHeapq(lower_bounds.heapq)
    monkeypatch.setattr(lower_bounds, "heapq", counting)
    subset, value = _peel(instance, set(names))
    # The whole cycle is the densest prefix: ceil(3001 / 1500) = 3.
    assert value == 3
    assert subset == sorted(names, key=repr)
    assert 0 < counting.pops <= n + graph.num_edges

