"""Tests for the Section V orbit detection machinery.

Every class runs on the label-keyed state; its ``...IndexKeyed``
subclass at the bottom reruns it on the index-keyed state over the
lowered graph, with labels and ids mapped to keys and results mapped
back through ``node_label`` / ``edge_id``.
"""

from repro.core.orbits import (
    bad_edge_groups,
    find_shared_lightly_missing,
    find_strongly_missing,
    free_colors_of_orbit,
    is_delta_witness,
    is_gamma_witness,
    uncolored_components,
)
from repro.graphs.multigraph import Multigraph
from tests.conftest import keyed_state


class LabelKeyed:
    key_space = "label"

    def state_with(self, moves, caps, q):
        """``(edge keys in move order, node key map, state)``."""
        g = Multigraph()
        ids = [g.add_edge(u, v) for u, v in moves]
        state, edge_key, node_key = keyed_state(self.key_space, g, caps, q)
        return [edge_key(e) for e in ids], node_key, state


def labels(state, nodes):
    return {state.node_label(v) for v in nodes}


def report_containing(state, *names):
    (report,) = [
        r for r in uncolored_components(state) if set(names) <= labels(state, r.nodes)
    ]
    return report


class TestComponents(LabelKeyed):
    def test_all_colored_means_no_components(self):
        eids, _n, state = self.state_with([("a", "b")], {"a": 1, "b": 1}, 1)
        state.assign(eids[0], 0)
        assert uncolored_components(state) == []

    def test_components_follow_uncolored_edges_only(self):
        eids, _n, state = self.state_with(
            [("a", "b"), ("b", "c"), ("x", "y")],
            {"a": 1, "b": 2, "c": 1, "x": 1, "y": 1},
            2,
        )
        state.assign(eids[1], 0)  # color b-c; uncolored: a-b and x-y
        reports = uncolored_components(state)
        node_sets = sorted(sorted(map(str, labels(state, r.nodes))) for r in reports)
        assert node_sets == [["a", "b"], ["x", "y"]]

    def test_component_edges_in_edge_id_order(self):
        eids, _n, state = self.state_with(
            [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b")],
            {"a": 2, "b": 2, "c": 2},
            3,
        )
        (report,) = uncolored_components(state)
        assert [state.edge_id(e) for e in report.edges] == [0, 1, 2, 3]
        assert sorted(report.edges) == sorted(eids)

    def test_classification_balancing(self):
        # q=3, c=2: untouched nodes strongly miss everything.
        _eids, _n, state = self.state_with([("a", "b")], {"a": 2, "b": 2}, 3)
        (report,) = uncolored_components(state)
        assert report.kind == "balancing"
        assert report.strong_node is not None

    def test_classification_color_orbit(self):
        # c=1 everywhere: never strongly missing.  Two endpoints of an
        # uncolored edge both lightly missing the same color 0.
        _eids, _n, state = self.state_with([("a", "b")], {"a": 1, "b": 1}, 1)
        (report,) = uncolored_components(state)
        assert report.kind == "color"
        assert report.light_pair is not None

    def test_classification_hard(self):
        # a-b uncolored; a saturated in 0 via a-x, b saturated in 1 via
        # b-y => a lightly misses only 1, b lightly misses only 0:
        # no shared missing color, nothing strongly missing -> hard.
        eids, _n, state = self.state_with(
            [("a", "b"), ("a", "x"), ("b", "y")],
            {"a": 1, "b": 1, "x": 1, "y": 1},
            2,
        )
        state.assign(eids[1], 0)
        state.assign(eids[2], 1)
        (report,) = uncolored_components(state)
        assert report.kind == "hard"


class TestFinders(LabelKeyed):
    def test_find_strongly_missing(self):
        _eids, n, state = self.state_with([("a", "b")], {"a": 3, "b": 1}, 1)
        assert find_strongly_missing(state, {n("a"), n("b")}) == (n("a"), 0)
        assert find_strongly_missing(state, {n("b")}) is None

    def test_find_shared_lightly_missing(self):
        _eids, n, state = self.state_with([("a", "b")], {"a": 1, "b": 1}, 1)
        found = find_shared_lightly_missing(state, {n("a"), n("b")})
        assert found is not None
        assert found[2] == 0

    def test_finders_scan_nodes_in_repr_order(self):
        # The first node scanned wins; the index-keyed graph enumerates
        # its nodes b, c, a, so only a repr-order scan finds a first.
        eids, n, state = self.state_with(
            [("a", "b"), ("b", "c")], {"a": 2, "b": 3, "c": 2}, 1
        )
        nodes = {n("a"), n("b"), n("c")}
        assert find_strongly_missing(state, nodes) == (n("a"), 0)
        state.assign(eids[0], 0)
        state.assign(eids[1], 0)
        # Every node now lightly misses color 0.
        assert find_shared_lightly_missing(state, nodes) == (n("a"), n("b"), 0)


class TestBadEdges(LabelKeyed):
    def test_parallel_uncolored_grouped(self):
        eids, _n, state = self.state_with(
            [("a", "b"), ("a", "b"), ("a", "c")], {"a": 2, "b": 2, "c": 1}, 1
        )
        groups = bad_edge_groups(state)
        assert len(groups) == 1
        assert sorted(groups[0]) == sorted(eids[:2])

    def test_groups_list_edges_in_edge_id_order(self):
        # Reversed endpoints still group together, listed by edge id.
        _eids, _n, state = self.state_with(
            [("b", "a"), ("c", "a"), ("a", "b"), ("a", "c"), ("b", "a")],
            {"a": 3, "b": 3, "c": 3},
            1,
        )
        groups = [[state.edge_id(e) for e in g] for g in bad_edge_groups(state)]
        assert groups == [[0, 2, 4], [1, 3]]

    def test_coloring_one_parallel_edge_clears_badness(self):
        eids, _n, state = self.state_with([("a", "b"), ("a", "b")], {"a": 2, "b": 2}, 1)
        state.assign(eids[0], 0)
        assert bad_edge_groups(state) == []


class TestWitnesses(LabelKeyed):
    def test_free_colors_shrink_with_internal_coloring(self):
        eids, _n, state = self.state_with([("a", "b"), ("a", "b")], {"a": 2, "b": 2}, 2)
        (report,) = uncolored_components(state)
        assert free_colors_of_orbit(state, report) == {0, 1}
        state.assign(eids[0], 0)
        (report,) = uncolored_components(state)
        assert free_colors_of_orbit(state, report) == {1}

    def test_gamma_witness_when_free_colors_full(self):
        # Pair {a, b} with caps 1/1: one colored parallel edge makes
        # color 0 non-free; color 1 has sum of counts 0 < cap_sum-1=1,
        # so not full => not a witness.  Saturating via externals makes
        # it one.
        eids, _n, state = self.state_with(
            [("a", "b"), ("a", "b"), ("a", "x"), ("b", "y")],
            {"a": 1, "b": 1, "x": 1, "y": 1},
            2,
        )
        state.assign(eids[0], 0)  # internal => color 0 not free
        # (report for component {a,b}) color 1 free but unused: a and b
        # both still missing it.
        report = report_containing(state, "a", "b")
        assert not is_gamma_witness(state, report)
        state.assign(eids[2], 1)
        state.assign(eids[3], 1)
        report = report_containing(state, "a", "b")
        assert is_gamma_witness(state, report)

    def test_delta_witness_when_node_misses_no_free_color(self):
        eids, _n, state = self.state_with(
            [("a", "b"), ("a", "b"), ("a", "x")],
            {"a": 1, "b": 2, "x": 1},
            2,
        )
        state.assign(eids[0], 0)  # internal: color 0 not free for orbit
        state.assign(eids[2], 1)  # a saturated in 1, the only free color
        report = report_containing(state, "a")
        assert is_delta_witness(state, report)

    def test_no_witness_while_a_free_color_fits(self):
        eids, _n, state = self.state_with(
            [("a", "b"), ("a", "b"), ("a", "x")],
            {"a": 1, "b": 2, "x": 1},
            2,
        )
        state.assign(eids[0], 0)
        report = report_containing(state, "a")
        assert not is_delta_witness(state, report)
        assert not is_gamma_witness(state, report)


# ----------------------------------------------------------------------
# The same tests on the index-keyed state.
# ----------------------------------------------------------------------

class TestComponentsIndexKeyed(TestComponents):
    key_space = "index"


class TestFindersIndexKeyed(TestFinders):
    key_space = "index"


class TestBadEdgesIndexKeyed(TestBadEdges):
    key_space = "index"


class TestWitnessesIndexKeyed(TestWitnesses):
    key_space = "index"
