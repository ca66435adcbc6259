"""Tests for the space-constrained migration extension."""

import pytest

from repro.core.errors import ScheduleValidationError, SolverError
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
import repro
from repro.extensions.space import (
    SpacePlan,
    SpaceState,
    default_occupancy,
    make_space_feasible,
    spare_space,
    validate_space,
)
from tests.conftest import random_instance


class TestSpaceState:
    def test_starting_overflow_rejected(self):
        inst = MigrationInstance.uniform([("a", "b")], capacity=1)
        with pytest.raises(ScheduleValidationError, match="over capacity"):
            SpaceState(inst, {"a": 3, "b": 0}, {"a": 2, "b": 2})

    def test_apply_round_conservative_semantics(self):
        # b is full; the incoming item cannot use the slot a's outgoing
        # item frees this same round.
        inst = MigrationInstance.uniform([("a", "b"), ("b", "c")], capacity=1)
        state = SpaceState(inst, {"a": 1, "b": 1, "c": 0}, {"a": 1, "b": 1, "c": 1})
        e_ab, e_bc = inst.graph.edge_ids()
        with pytest.raises(ScheduleValidationError, match="would hold"):
            state.apply_round([(e_ab, "a", "b"), (e_bc, "b", "c")])

    def test_apply_round_updates_occupancy(self):
        inst = MigrationInstance.uniform([("a", "b")], capacity=1)
        state = SpaceState(inst, {"a": 1, "b": 0}, {"a": 1, "b": 1})
        (eid,) = inst.graph.edge_ids()
        state.apply_round([(eid, "a", "b")])
        assert state.occupancy == {"a": 0, "b": 1}


class TestHelpers:
    def test_default_occupancy_counts_outgoing(self):
        inst = MigrationInstance.uniform([("a", "b"), ("a", "c")], capacity=1)
        assert default_occupancy(inst) == {"a": 2, "b": 0, "c": 0}

    def test_spare_space_covers_start_and_end(self):
        inst = MigrationInstance.uniform([("a", "b"), ("c", "b")], capacity=1)
        occ = default_occupancy(inst)
        space = spare_space(inst, occ, spare=1)
        assert space["b"] == 3  # 2 incoming + 1 spare
        assert space["a"] == 2  # 1 resident + 1 spare


class TestMakeSpaceFeasible:
    @pytest.mark.parametrize("seed", range(8))
    def test_one_spare_unit_suffices(self, seed):
        inst = random_instance(8, 35, capacity_choices=(1, 2), seed=seed)
        sched = repro.plan(inst).schedule
        plan = make_space_feasible(inst, sched)
        assert plan.num_rounds >= sched.num_rounds or sched.num_rounds == 0
        # Hall et al.: a spare unit keeps the overhead a small constant.
        assert plan.num_rounds <= 3 * max(sched.num_rounds, 1)

    def test_ample_space_means_no_overhead(self):
        inst = random_instance(8, 30, capacity_choices=(2,), seed=3)
        sched = repro.plan(inst).schedule
        occ = default_occupancy(inst)
        roomy = {v: 10_000 for v in inst.graph.nodes}
        plan = make_space_feasible(inst, sched, occupancy=occ, space=roomy)
        assert plan.num_rounds == sched.num_rounds
        assert not plan.bypassed_items

    def test_full_cycle_needs_bypass(self):
        # a -> b -> c -> a, every disk full (occupancy == space), one
        # extra empty disk: only a bypass can break the cycle.
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("b", "c"), ("c", "a")],
            {"a": 1, "b": 1, "c": 1, "spare": 1},
            extra_nodes=["spare"],
        )
        sched = repro.plan(inst).schedule
        occ = {"a": 1, "b": 1, "c": 1, "spare": 0}
        space = {"a": 1, "b": 1, "c": 1, "spare": 1}
        plan = make_space_feasible(inst, sched, occupancy=occ, space=space)
        assert plan.bypassed_items, "the full cycle must be broken by a bypass"
        validate_space(inst, plan, occ, space)

    def test_impossible_without_any_free_space(self):
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("b", "a")], {"a": 1, "b": 1}
        )
        sched = repro.plan(inst).schedule
        occ = {"a": 1, "b": 1}
        space = {"a": 1, "b": 1}
        with pytest.raises(SolverError):
            make_space_feasible(inst, sched, occupancy=occ, space=space)

    def test_empty_schedule(self):
        from repro.graphs.multigraph import Multigraph

        inst = MigrationInstance(Multigraph(nodes=["a"]), {"a": 1})
        plan = make_space_feasible(inst, MigrationSchedule([]))
        assert plan.num_rounds == 0


class TestValidator:
    def test_catches_space_overflow(self):
        inst = MigrationInstance.uniform([("a", "b"), ("c", "b")], capacity=1)
        e1, e2 = inst.graph.edge_ids()
        plan = SpacePlan(rounds=[[(e1, "a", "b"), (e2, "c", "b")]], base_rounds=1)
        occ = {"a": 1, "b": 0, "c": 1}
        space = {"a": 1, "b": 1, "c": 1}  # b can hold only one
        with pytest.raises(ScheduleValidationError):
            validate_space(inst, plan, occ, space)

    def test_catches_wrong_location(self):
        inst = MigrationInstance.uniform([("a", "b")], capacity=1)
        (eid,) = inst.graph.edge_ids()
        plan = SpacePlan(rounds=[[(eid, "c", "b")]], base_rounds=1)
        with pytest.raises(ScheduleValidationError, match="hop claims"):
            validate_space(inst, plan, {"a": 1, "b": 0}, {"a": 2, "b": 2})
