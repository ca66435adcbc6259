"""Tests for the capacitated coloring state and ab-path flips.

Every class runs on the label-keyed state; its ``...IndexKeyed``
subclass at the bottom reruns it on the index-keyed state over the
lowered graph, with labels and ids mapped to keys and results mapped
back through ``edge_ids``.
"""

import pytest

from repro.core.errors import ScheduleValidationError
from repro.graphs.multigraph import Multigraph
from tests.conftest import keyed_state, random_instance


class LabelKeyed:
    key_space = "label"

    def make_state(self, moves, caps, q):
        """``(edge keys in move order, node key map, state)``."""
        g = Multigraph()
        ids = [g.add_edge(u, v) for u, v in moves]
        state, edge_key, node_key = keyed_state(self.key_space, g, caps, q)
        return [edge_key(e) for e in ids], node_key, state


class TestPredicates(LabelKeyed):
    def test_missing_levels(self):
        eids, n, state = self.make_state([("a", "b"), ("a", "b")], {"a": 2, "b": 2}, 2)
        assert state.is_strongly_missing(n("a"), 0)
        state.assign(eids[0], 0)
        assert state.is_lightly_missing(n("a"), 0)
        assert state.is_missing(n("a"), 0)
        state.assign(eids[1], 0)
        assert state.is_saturated(n("a"), 0)
        assert not state.is_missing(n("a"), 0)

    def test_missing_colors_listing(self):
        eids, n, state = self.make_state([("a", "b")], {"a": 1, "b": 1}, 3)
        state.assign(eids[0], 1)
        assert state.missing_colors(n("a")) == [0, 2]

    def test_common_missing_color(self):
        eids, n, state = self.make_state(
            [("a", "b"), ("a", "c"), ("b", "c")], {"a": 1, "b": 1, "c": 1}, 2
        )
        state.assign(eids[0], 0)  # a-b color 0
        assert state.common_missing_color(n("a"), n("c")) == 1
        assert state.common_missing_color(n("b"), n("c")) == 1


class TestAssignment(LabelKeyed):
    def test_assign_respects_capacity(self):
        eids, _n, state = self.make_state(
            [("a", "b"), ("a", "c")], {"a": 1, "b": 1, "c": 1}, 1
        )
        state.assign(eids[0], 0)
        with pytest.raises(ScheduleValidationError):
            state.assign(eids[1], 0)

    def test_double_assign_rejected(self):
        eids, _n, state = self.make_state([("a", "b")], {"a": 1, "b": 1}, 1)
        state.assign(eids[0], 0)
        with pytest.raises(ScheduleValidationError):
            state.assign(eids[0], 0)

    def test_unassign_roundtrip(self):
        eids, _n, state = self.make_state([("a", "b")], {"a": 1, "b": 1}, 1)
        state.assign(eids[0], 0)
        assert state.unassign(eids[0]) == 0
        assert eids[0] in state.uncolored
        state.assign(eids[0], 0)
        state.validate()

    def test_self_loop_counts_double(self):
        eids, n, state = self.make_state([("a", "a")], {"a": 2}, 1)
        state.assign(eids[0], 0)
        assert state.count(n("a"), 0) == 2
        state.validate()

    def test_self_loop_needs_two_slots(self):
        eids, _n, state = self.make_state([("a", "a")], {"a": 1}, 1)
        with pytest.raises(ScheduleValidationError):
            state.assign(eids[0], 0)


class TestErrorTexts(LabelKeyed):
    """Messages name edge ids and node labels in either key space."""

    MOVES = [("a", "b"), ("b", "c"), ("a", "c")]
    CAPS = {"a": 1, "b": 1, "c": 1}

    def test_double_assign_names_edge_id(self):
        eids, _n, state = self.make_state(self.MOVES, self.CAPS, 2)
        state.assign(eids[0], 0)
        with pytest.raises(ScheduleValidationError, match=r"^edge 0 already colored$"):
            state.assign(eids[0], 1)

    def test_capacity_violation_names_edge_id(self):
        eids, _n, state = self.make_state(self.MOVES, self.CAPS, 2)
        state.assign(eids[0], 0)
        with pytest.raises(
            ScheduleValidationError,
            match=r"^assigning color 0 to edge 2 violates a constraint$",
        ):
            state.assign(eids[2], 0)

    def test_validate_names_edge_outside_palette(self):
        eids, _n, state = self.make_state(self.MOVES, self.CAPS, 2)
        state.assign(eids[1], 1)
        state.q = 1
        with pytest.raises(
            ScheduleValidationError, match=r"^edge 1 has color 1 outside palette$"
        ):
            state.validate()

    def test_validate_names_node_over_capacity(self):
        eids, n, state = self.make_state(self.MOVES, self.CAPS, 2)
        state.assign(eids[1], 0)  # b-c
        state.cap[n("c")] = 0
        with pytest.raises(
            ScheduleValidationError,
            match=r"^node 'c' has 1 edges of color 0 but c_v=0$",
        ):
            state.validate()

    def test_validate_names_node_with_count_drift(self):
        eids, n, state = self.make_state(self.MOVES, self.CAPS, 2)
        state.assign(eids[0], 1)  # a-b
        state.counts[n("a")][1] = 0
        with pytest.raises(
            ScheduleValidationError,
            match=r"^count drift at \('a', 1\): cached 0, real 1$",
        ):
            state.validate()

    def test_validate_require_complete(self):
        eids, _n, state = self.make_state(self.MOVES, self.CAPS, 2)
        state.assign(eids[0], 0)
        state.validate()
        with pytest.raises(ScheduleValidationError, match=r"^2 edges uncolored$"):
            state.validate(require_complete=True)


class TestFlips(LabelKeyed):
    def test_basic_flip_frees_color(self):
        # a saturated in color 0 via edge to b; flipping frees it.
        eids, n, state = self.make_state(
            [("a", "b"), ("a", "c")], {"a": 1, "b": 1, "c": 1}, 2
        )
        state.assign(eids[0], 0)
        assert state.is_saturated(n("a"), 0)
        assert state.attempt_flip(n("a"), 0, 1)
        state.validate()
        assert state.is_missing(n("a"), 0)
        assert state.color[eids[0]] == 1

    def test_flip_requires_target_missing(self):
        eids, n, state = self.make_state(
            [("a", "b"), ("a", "c")], {"a": 1, "b": 1, "c": 1}, 2
        )
        state.assign(eids[0], 0)
        state.assign(eids[1], 1)
        # a saturated in both colors: no flip can start.
        assert not state.attempt_flip(n("a"), 0, 1)
        state.validate()

    def test_flip_cascades_through_saturated_node(self):
        # Path a-b-c: a-b colored 0, b-c colored 1, all caps 1.
        # Flipping a's 0 to 1 must cascade: b would exceed color 1,
        # so b-c flips back to 0.
        eids, n, state = self.make_state(
            [("a", "b"), ("b", "c")], {"a": 1, "b": 1, "c": 1}, 2
        )
        state.assign(eids[0], 0)
        state.assign(eids[1], 1)
        assert state.attempt_flip(n("a"), 0, 1)
        state.validate()
        assert state.color[eids[0]] == 1
        assert state.color[eids[1]] == 0

    def test_failed_flip_leaves_state_untouched(self):
        # b carries one edge of each color at cap 1, so it is not
        # missing color 1 and no flip can even start from it.
        eids, n, state = self.make_state(
            [("a", "b"), ("b", "d"), ("a", "c")],
            {"a": 1, "b": 1, "c": 1, "d": 1},
            2,
        )
        state.assign(eids[0], 0)
        state.assign(eids[1], 1)
        state.assign(eids[2], 1)
        before = dict(state.color)
        assert not state.attempt_flip(n("b"), 0, 1)
        assert state.color == before
        state.validate()

    def test_flip_same_color_rejected(self):
        _eids, n, state = self.make_state([("a", "b")], {"a": 1, "b": 1}, 2)
        assert not state.attempt_flip(n("a"), 0, 0)


class TestTryColorEdge(LabelKeyed):
    def test_direct_common_color(self):
        eids, _n, state = self.make_state([("a", "b")], {"a": 1, "b": 1}, 1)
        assert state.try_color_edge(eids[0])
        assert state.color[eids[0]] == 0

    def test_flip_then_color(self):
        # Classic Kempe situation at capacity 1 with 2 colors:
        # edges (a-b):0, (c-d):1 exist; new edge (b-c) sees b missing 1,
        # c missing 0 — needs a flip or direct color... construct a
        # genuinely blocked case: b saturated 0, c saturated 1.
        eids, _n, state = self.make_state(
            [("a", "b"), ("c", "d"), ("b", "c")], {"a": 1, "b": 1, "c": 1, "d": 1}, 2
        )
        state.assign(eids[0], 0)
        state.assign(eids[1], 1)
        assert state.try_color_edge(eids[2])
        state.validate()
        assert len(state.uncolored) == 0

    def test_impossible_within_palette(self):
        # Triangle with one color: only one edge can ever be colored.
        eids, _n, state = self.make_state(
            [("a", "b"), ("b", "c"), ("c", "a")], {"a": 1, "b": 1, "c": 1}, 1
        )
        assert state.try_color_edge(eids[0])
        assert not state.try_color_edge(eids[1])
        assert not state.try_color_edge(eids[2])

    @pytest.mark.parametrize("seed", range(6))
    def test_bulk_coloring_stays_valid(self, seed):
        inst = random_instance(8, 30, capacity_choices=(1, 2, 3), seed=seed)
        q = 2 * inst.delta_prime()
        state, edge_key, _node_key = keyed_state(
            self.key_space, inst.graph, inst.capacities, q, seed=seed
        )
        for eid in inst.graph.edge_ids():
            state.try_color_edge(edge_key(eid))
        state.validate()


class TestPaletteGrowth(LabelKeyed):
    def test_add_color(self):
        eids, _n, state = self.make_state([("a", "b"), ("a", "b")], {"a": 1, "b": 1}, 1)
        state.assign(eids[0], 0)
        assert not state.try_color_edge(eids[1])
        new = state.add_color()
        assert new == 1
        assert state.try_color_edge(eids[1])
        state.validate(require_complete=True)


class TestPreload(LabelKeyed):
    def test_preload_assigns_valid_colors(self):
        eids, _n, state = self.make_state(
            [("a", "b"), ("b", "c"), ("a", "c")], {"a": 1, "b": 1, "c": 1}, 3
        )
        rejected = state.preload({eids[0]: 0, eids[1]: 1, eids[2]: 2})
        assert rejected == []
        assert state.uncolored == set()

    def test_preload_rejects_capacity_conflicts(self):
        # Both edges share endpoint a (c=1); the same color cannot hold both.
        eids, _n, state = self.make_state(
            [("a", "b"), ("a", "c")], {"a": 1, "b": 1, "c": 1}, 2
        )
        rejected = state.preload({eids[0]: 0, eids[1]: 0})
        assert rejected == [eids[1]]
        assert eids[1] in state.uncolored

    def test_preload_rejects_out_of_range_colors(self):
        eids, _n, state = self.make_state([("a", "b")], {"a": 1, "b": 1}, 2)
        assert state.preload({eids[0]: 5}) == [eids[0]]

    def test_preload_accounts_self_loops_twice(self):
        eids, _n, state = self.make_state([("a", "a")], {"a": 1}, 1)
        # A self-loop needs two capacity slots; c=1 cannot host it.
        assert state.preload({eids[0]: 0}) == [eids[0]]

    def test_preload_is_order_independent(self):
        # Mapping iteration never matters: edges load in ascending id.
        eids, _n, state_a = self.make_state(
            [("a", "b"), ("a", "b")], {"a": 1, "b": 1}, 1
        )
        eids2, _n2, state_b = self.make_state(
            [("a", "b"), ("a", "b")], {"a": 1, "b": 1}, 1
        )
        first = state_a.preload({eids[0]: 0, eids[1]: 0})
        second = state_b.preload({eids2[1]: 0, eids2[0]: 0})
        assert first == second == [eids[1]]
        assert [state_a.edge_id(e) for e in first] == [1]


# ----------------------------------------------------------------------
# The same tests on the index-keyed state.
# ----------------------------------------------------------------------

class TestPredicatesIndexKeyed(TestPredicates):
    key_space = "index"


class TestAssignmentIndexKeyed(TestAssignment):
    key_space = "index"


class TestErrorTextsIndexKeyed(TestErrorTexts):
    key_space = "index"


class TestFlipsIndexKeyed(TestFlips):
    key_space = "index"


class TestTryColorEdgeIndexKeyed(TestTryColorEdge):
    key_space = "index"


class TestPaletteGrowthIndexKeyed(TestPaletteGrowth):
    key_space = "index"


class TestPreloadIndexKeyed(TestPreload):
    key_space = "index"
