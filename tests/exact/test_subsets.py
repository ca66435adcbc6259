"""Tests for the shared connected-subset enumeration."""

import random
from itertools import combinations

from repro.exact.subsets import (
    connected_node_subsets,
    connected_subsets,
    counted_subsets,
    indexed_instance,
)
from tests import lb_oracles
from tests.conftest import random_instance


def brute_connected_subsets(adjacency, min_size=2):
    """Reference enumeration: filter all combinations by connectivity."""
    n = len(adjacency)
    adj = [set(u for u in row if u != i) for i, row in enumerate(adjacency)]
    out = set()
    for size in range(min_size, n + 1):
        for combo in combinations(range(n), size):
            members = set(combo)
            seen = {combo[0]}
            stack = [combo[0]]
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if u in members and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if seen == members:
                out.add(combo)
    return out


class TestEnumeration:
    def test_path_graph(self):
        # P4: connected subsets are exactly the contiguous runs.
        adjacency = [[1], [0, 2], [1, 3], [2]]
        got = list(connected_subsets(adjacency))
        assert sorted(got) == [
            (0, 1), (0, 1, 2), (0, 1, 2, 3), (1, 2), (1, 2, 3), (2, 3),
        ]

    def test_no_duplicates_and_matches_brute_force(self):
        # A denser shape: C5 plus a chord and a pendant.
        adjacency = [[1, 4, 2], [0, 2], [1, 3, 0], [2, 4], [3, 0, 5], [4]]
        got = list(connected_subsets(adjacency))
        assert len(got) == len(set(got))
        assert set(got) == brute_connected_subsets(adjacency)

    def test_min_size_one_includes_singletons(self):
        adjacency = [[1], [0], []]
        got = set(connected_subsets(adjacency, min_size=1))
        assert (0,) in got and (1,) in got and (2,) in got

    def test_disconnected_graph(self):
        # Two components; no subset may span both.
        adjacency = [[1], [0], [3], [2]]
        assert set(connected_subsets(adjacency)) == {(0, 1), (2, 3)}

    def test_duplicate_and_self_entries_ignored(self):
        messy = [[1, 1, 0], [0, 0, 1]]
        clean = [[1], [0]]
        assert list(connected_subsets(messy)) == list(connected_subsets(clean))

    def test_order_is_deterministic(self):
        adjacency = [[1, 2, 3], [0, 2], [0, 1, 3], [0, 2]]
        assert list(connected_subsets(adjacency)) == list(
            connected_subsets(adjacency)
        )


class TestNodeLifting:
    def test_labels_follow_insertion_order(self):
        inst = random_instance(6, 10, seed=3)
        nodes = list(inst.graph.nodes)
        for subset in connected_node_subsets(inst):
            assert len(subset) >= 2
            # Subsets come back in canonical node order.
            indices = [nodes.index(v) for v in subset]
            assert indices == sorted(indices)

    def test_counts_match_index_enumeration(self):
        inst = random_instance(6, 10, seed=3)
        nodes = list(inst.graph.nodes)
        index = {v: i for i, v in enumerate(nodes)}
        adjacency = [[] for _ in nodes]
        for _eid, u, v in inst.graph.edges():
            adjacency[index[u]].append(index[v])
            adjacency[index[v]].append(index[u])
        lifted = list(connected_node_subsets(inst))
        raw = list(connected_subsets(adjacency))
        assert len(lifted) == len(raw)


def _random_adjacency(rng, n, m):
    adjacency = [[] for _ in range(n)]
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


class TestCountedEnumeration:
    def test_order_matches_recursive_reference(self):
        rng = random.Random(17)
        for _ in range(120):
            n = rng.randint(2, 11)
            adjacency = _random_adjacency(rng, n, rng.randint(0, 3 * n))
            for min_size in (1, 2):
                assert list(connected_subsets(adjacency, min_size)) == list(
                    lb_oracles.connected_subsets(adjacency, min_size)
                )

    def test_counts_match_a_rescan(self):
        rng = random.Random(29)
        for _ in range(80):
            n = rng.randint(2, 9)
            adjacency = _random_adjacency(rng, n, rng.randint(1, 4 * n))
            edges = [(u, v) for u, row in enumerate(adjacency) for v in row if u < v]
            caps = [rng.randint(1, 5) for _ in range(n)]
            for subset, inside, capsum in counted_subsets(adjacency, caps):
                members = set(subset)
                assert inside == sum(1 for u, v in edges if u in members and v in members)
                assert capsum == sum(caps[v] for v in subset)

    def test_node_lifting_is_a_projection(self):
        inst = random_instance(7, 15, seed=5)
        nodes, adjacency, caps = indexed_instance(inst)
        assert caps == [inst.capacity(v) for v in nodes]
        assert list(connected_node_subsets(inst)) == [
            tuple(nodes[i] for i in subset)
            for subset, _inside, _capsum in counted_subsets(adjacency, caps)
        ]
