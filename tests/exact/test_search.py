"""Tests for the branch-and-bound exact solver and its certificates."""

import dataclasses

import pytest

from repro.core.exact import exact_optimum_rounds
from repro.core.lower_bounds import lower_bound
from repro.core.objectives import (
    BoundedColorObjective,
    GroupCompletionObjective,
)
from repro.core.problem import MigrationInstance
from repro.exact.search import (
    EXACT_BB_METHOD,
    EXACT_SEARCH_EDGE_LIMIT,
    EXACT_SEARCH_NODE_LIMIT,
    ExactBudgetExceeded,
    InfeasibleObjectiveError,
    OptimalityCertificate,
    exact_bb_schedule,
    solve_exact,
    verify_optimality,
)
from tests.conftest import random_instance


def petersen_instance() -> MigrationInstance:
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    moves = outer + inner + spokes
    nodes = sorted({v for pair in moves for v in pair})
    return MigrationInstance.from_moves(moves, {v: 1 for v in nodes})


class TestMakespan:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        inst = random_instance(5, 8, capacity_choices=(1, 2), seed=seed)
        res = solve_exact(inst)
        assert res.value == exact_optimum_rounds(inst)
        res.schedule.validate(inst)

    def test_schedule_method_label(self):
        res = solve_exact(random_instance(4, 6, seed=1))
        assert res.schedule.method == EXACT_BB_METHOD

    def test_value_at_least_lower_bound(self):
        for seed in range(5):
            inst = random_instance(6, 12, seed=seed)
            res = solve_exact(inst)
            assert res.value >= lower_bound(inst)

    def test_petersen_needs_four_rounds(self):
        # Δ' = 3 but χ'(Petersen) = 4: the optimum strictly exceeds the
        # certified lower bound, so the proof must be exhausted-frontier.
        res = solve_exact(petersen_instance())
        assert res.value == 4
        assert res.lower_bound == 3
        assert res.certificate.proof == "exhausted-frontier"
        assert res.explored > 0

    def test_matching_lb_proof_on_even_instance(self):
        inst = MigrationInstance.from_moves(
            [("a", "b")] * 4 + [("b", "c")] * 4, {"a": 2, "b": 2, "c": 2}
        )
        res = solve_exact(inst)
        assert res.value == res.lower_bound
        assert res.certificate.proof == "matching-lb"

    def test_caps_enforced(self):
        too_many_items = random_instance(8, EXACT_SEARCH_EDGE_LIMIT + 1, seed=0)
        with pytest.raises(ValueError, match="caps at"):
            solve_exact(too_many_items)
        moves = [(f"d{i}", f"d{i + 1}") for i in range(EXACT_SEARCH_NODE_LIMIT)]
        too_many_disks = MigrationInstance.uniform(moves, capacity=1)
        with pytest.raises(ValueError, match="caps at"):
            solve_exact(too_many_disks)

    def test_budget_exceeded_is_typed(self):
        with pytest.raises(ExactBudgetExceeded):
            solve_exact(petersen_instance(), node_budget=3)

    def test_deterministic_across_runs(self):
        inst = random_instance(6, 12, seed=7)
        a = solve_exact(inst)
        b = solve_exact(inst)
        assert a.schedule.rounds == b.schedule.rounds
        assert a.certificate.to_json() == b.certificate.to_json()

    def test_wrapper_schedule(self):
        inst = random_instance(5, 8, seed=3)
        sched = exact_bb_schedule(inst)
        sched.validate(inst)
        assert sched.num_rounds == solve_exact(inst).value


class TestObjectives:
    def test_bounded_color_respects_windows(self):
        inst = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        eids = sorted(inst.graph.edge_ids())
        allowed = {eids[0]: (1, 2), eids[1]: (0, 2), eids[2]: (0, 1, 2, 3)}
        objective = BoundedColorObjective(allowed)
        res = solve_exact(inst, objective)
        objective.check(inst, res.schedule.rounds)
        assert res.value == objective.value(inst, res.schedule.rounds)

    def test_bounded_color_infeasible(self):
        # Two parallel items on unit-capacity disks, same single window.
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("a", "b")], {"a": 1, "b": 1}
        )
        eids = sorted(inst.graph.edge_ids())
        objective = BoundedColorObjective({eids[0]: (0,), eids[1]: (0,)})
        with pytest.raises(InfeasibleObjectiveError):
            solve_exact(inst, objective)

    def test_group_completion_prefers_heavy_group_first(self):
        # Two independent matchings; the heavy group should finish first.
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("c", "d")], {"a": 1, "b": 1, "c": 1, "d": 1}
        )
        eids = sorted(inst.graph.edge_ids())
        objective = GroupCompletionObjective(
            {eids[0]: "light", eids[1]: "heavy"},
            {"light": 1, "heavy": 5},
        )
        res = solve_exact(inst, objective)
        # Both items fit in one round, so every group completes at 1.
        assert res.value == 6
        assert res.schedule.num_rounds == 1

    def test_group_completion_weighted_tradeoff(self):
        # A path a-b-c under unit caps: the shared disk b forces two
        # rounds, and the heavier group's item must go first.
        inst = MigrationInstance.uniform([("a", "b"), ("b", "c")], capacity=1)
        eids = sorted(inst.graph.edge_ids())
        objective = GroupCompletionObjective(
            {eids[0]: "g1", eids[1]: "g2"}, {"g1": 1, "g2": 10}
        )
        res = solve_exact(inst, objective)
        # g2 completes in round 1 (10*1), g1 in round 2 (1*2) = 12.
        assert res.value == 12
        completions = objective.completions(inst, res.schedule.rounds)
        assert completions["g2"] == 1


class TestCertificates:
    def test_json_round_trip(self):
        res = solve_exact(random_instance(5, 8, seed=2))
        blob = res.certificate.to_json()
        restored = OptimalityCertificate.from_json(blob)
        assert restored == res.certificate

    def test_verify_accepts_genuine_certificate(self):
        inst = random_instance(5, 8, seed=2)
        res = solve_exact(inst)
        verify_optimality(inst, res.objective, res.schedule, res.certificate)

    @pytest.mark.parametrize(
        "field,delta",
        [("value", 1), ("lower_bound", 1), ("explored", 7)],
    )
    def test_tampered_numeric_field_rejected(self, field, delta):
        inst = petersen_instance()
        res = solve_exact(inst)
        forged = dataclasses.replace(
            res.certificate, **{field: getattr(res.certificate, field) + delta}
        )
        with pytest.raises(ValueError):
            verify_optimality(inst, res.objective, res.schedule, forged)

    def test_tampered_frontier_digest_rejected(self):
        inst = petersen_instance()
        res = solve_exact(inst)
        forged = dataclasses.replace(res.certificate, frontier_digest="0" * 64)
        with pytest.raises(ValueError):
            verify_optimality(inst, res.objective, res.schedule, forged)

    def test_certificate_bound_to_instance(self):
        inst = random_instance(5, 8, seed=2)
        other = random_instance(5, 8, seed=3)
        res = solve_exact(inst)
        with pytest.raises(ValueError):
            verify_optimality(other, res.objective, res.schedule, res.certificate)

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not an optimality certificate"):
            OptimalityCertificate.from_json('{"format": "bogus"}')
