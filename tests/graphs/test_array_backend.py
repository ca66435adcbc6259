"""CompactGraph/CompactInstance: the CSR snapshot and its contracts.

The array backend's correctness story rests on a handful of exact
order-preservation invariants (documented in ``docs/engine.md``); the
tests here pin each one down directly instead of relying only on the
end-to-end differential harness.
"""

import pytest

from repro.core.problem import MigrationInstance
from repro.graphs.array_backend import (
    CompactGraph,
    lift_coloring,
    lift_rounds,
    lower_instance,
)
from repro.graphs.euler import compact_euler_circuits, euler_circuits
from repro.graphs.matching import (
    InfeasibleMatchingError,
    QuotaPeeler,
    degree_constrained_subgraph,
)
from repro.graphs.multigraph import Multigraph


def assert_same_graph(a: Multigraph, b: Multigraph) -> None:
    """Byte-level structural equality, orders included."""
    assert a.nodes == b.nodes
    assert list(a.edges()) == list(b.edges())
    assert a.next_edge_id == b.next_edge_id
    for v in a.nodes:
        assert a.incident_edges(v) == b.incident_edges(v)
        assert a.degree(v) == b.degree(v)


def sample_graph() -> Multigraph:
    g = Multigraph(nodes=["a", "b", "c", "d"])
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("a", "b")  # parallel
    g.add_edge("c", "c")  # self-loop
    g.add_edge("d", "a")
    return g


class TestRoundTrip:
    def test_lossless(self):
        g = sample_graph()
        assert_same_graph(g, CompactGraph.from_multigraph(g).to_multigraph())

    def test_empty(self):
        g = Multigraph()
        assert_same_graph(g, CompactGraph.from_multigraph(g).to_multigraph())

    def test_isolated_nodes_survive(self):
        g = Multigraph(nodes=["x", "y"])
        back = CompactGraph.from_multigraph(g).to_multigraph()
        assert back.nodes == ["x", "y"]
        assert back.num_edges == 0

    def test_after_remove_readd_interleaving(self):
        """Edge-id holes and non-contiguous ids round-trip exactly."""
        g = Multigraph(nodes=[0, 1, 2])
        e0 = g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.remove_edge(e0)
        g.add_edge(0, 2)  # gets a fresh id, not e0's
        e3 = g.add_edge(2, 0)
        g.remove_edge(e3)
        back = CompactGraph.from_multigraph(g).to_multigraph()
        assert_same_graph(g, back)
        # A post-round-trip insertion continues the same id sequence.
        assert back.add_edge(0, 1) == g.add_edge(0, 1)

    def test_snapshot_is_immutable_under_source_mutation(self):
        g = sample_graph()
        compact = CompactGraph.from_multigraph(g)
        g.add_edge("a", "d")
        assert compact.num_edges == 5
        assert len(compact.edge_ids) == 5


class TestIterationOrderContract:
    def test_edges_enumerate_in_object_order(self):
        g = sample_graph()
        compact = CompactGraph.from_multigraph(g)
        assert compact.edge_ids == [eid for eid, _u, _v in g.edges()]
        for e, (eid, u, v) in enumerate(g.edges()):
            assert compact.nodes[compact.edge_u[e]] == u
            assert compact.nodes[compact.edge_v[e]] == v

    def test_incident_rows_match_object_adjacency(self):
        g = sample_graph()
        compact = CompactGraph.from_multigraph(g)
        for i, v in enumerate(g.nodes):
            row_ids = [compact.edge_ids[e] for e in compact.incident_row(i)]
            assert row_ids == g.incident_edges(v)

    def test_self_loop_degree_and_row(self):
        g = Multigraph(nodes=["v"])
        loop = g.add_edge("v", "v")
        compact = CompactGraph.from_multigraph(g)
        assert compact.degree[0] == 2  # loops count twice toward degree
        assert compact.incident_row(0) == [0]  # but appear once per row
        assert compact.is_self_loop(0)
        assert compact.edge_ids[0] == loop

    def test_repr_order_and_rank(self):
        g = Multigraph(nodes=["delta", "alpha", "charlie", "bravo"])
        compact = CompactGraph.from_multigraph(g)
        reprs = compact.node_reprs()
        assert reprs == [repr(v) for v in g.nodes]
        order = compact.repr_order()
        assert [reprs[i] for i in order] == sorted(reprs)
        rank = compact.repr_rank()
        for u in range(compact.num_nodes):
            for v in range(compact.num_nodes):
                assert (rank[u] <= rank[v]) == (reprs[u] <= reprs[v])

    def test_parallel_edge_groups(self):
        g = sample_graph()
        compact = CompactGraph.from_multigraph(g)
        groups = compact.parallel_edge_groups()
        ab = tuple(sorted((compact.index_of["a"], compact.index_of["b"])))
        assert len(groups[ab]) == 2
        assert compact.max_multiplicity() == g.max_multiplicity()


class TestCompactInstance:
    def test_lowering_mirrors_instance(self):
        g = Multigraph(nodes=["a", "b", "c"])
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        instance = MigrationInstance(g, {"a": 1, "b": 2, "c": 4})
        ci = lower_instance(instance)
        assert ci.source is instance
        assert ci.capacities == [1, 2, 4]
        assert ci.delta_prime() == instance.delta_prime()
        assert ci.all_even() == instance.all_even()

    def test_all_even_tracks_capacities(self):
        g = Multigraph(nodes=["a", "b"])
        g.add_edge("a", "b")
        even = lower_instance(MigrationInstance(g.copy(), {"a": 2, "b": 4}))
        odd = lower_instance(MigrationInstance(g.copy(), {"a": 2, "b": 3}))
        assert even.all_even()
        assert not odd.all_even()

    def test_lift_rounds_and_coloring(self):
        g = sample_graph()
        compact = CompactGraph.from_multigraph(g)
        eids = compact.edge_ids
        assert lift_rounds(compact, [[0, 2], [1]]) == [
            [eids[0], eids[2]], [eids[1]]
        ]
        lifted = lift_coloring(compact, {3: 0, 1: 1})
        # Insertion order of the compact dict is preserved by the lift.
        assert list(lifted.items()) == [(eids[3], 0), (eids[1], 1)]


class TestCompactEulerCircuits:
    def test_matches_object_circuits(self):
        g = Multigraph(nodes=range(5))
        for u, v in [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]:
            g.add_edge(u, v)
        compact = CompactGraph.from_multigraph(g)
        obj = euler_circuits(g)
        arr = compact_euler_circuits(
            compact.indptr, compact.inc_edge, compact.inc_other,
            compact.degree, compact.num_edges,
        )
        lifted = [
            [
                (compact.edge_ids[e], compact.nodes[u], compact.nodes[v])
                for e, u, v in circuit
            ]
            for circuit in arr
        ]
        assert lifted == obj


class TestQuotaPeeler:
    def _peel_problem(self, seed):
        import random

        rng = random.Random(seed)
        num_left, num_right, quota = 4, 4, 2
        # quota parallel edges per (l, r) pair sampled from a perfect
        # "rotation" template keeps every peel feasible.
        edges = []
        for k in range(quota * 2):
            for l in range(num_left):
                edges.append((l, (l + k) % num_right))
        rng.shuffle(edges)
        return num_left, num_right, edges

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fresh_dcs_per_peel(self, seed):
        num_left, num_right, edges = self._peel_problem(seed)
        peeler = QuotaPeeler(
            [1] * num_left,
            [1] * num_right,
            [l for l, _r in edges],
            [r for _l, r in edges],
        )
        remaining = list(range(len(edges)))
        for _round in range(4):
            fresh = degree_constrained_subgraph(
                [edges[k] for k in remaining],
                {l: 1 for l in range(num_left)},
                {r: 1 for r in range(num_right)},
            )
            assert peeler.peel(remaining) == fresh
            picked = set(fresh)
            remaining = [
                k for pos, k in enumerate(remaining) if pos not in picked
            ]

    def test_infeasible_quotas_raise(self):
        with pytest.raises(InfeasibleMatchingError):
            QuotaPeeler([2], [1], [0], [0])
        peeler = QuotaPeeler([1, 1], [1, 1], [0], [0])
        with pytest.raises(InfeasibleMatchingError):
            peeler.peel([0])
