"""Tests for the completion-time objectives extension."""

import pytest

from repro.core.schedule import MigrationSchedule
from repro import plan
from repro.extensions.completion_time import (
    disk_release_sum,
    promote_items,
    reorder_rounds_by_weight,
    reorder_rounds_for_disk_release,
    sum_completion_time,
    weighted_greedy_schedule,
    weighted_sum_completion_time,
)
from tests.conftest import random_instance


class TestMetrics:
    def test_sum_completion_time(self):
        sched = MigrationSchedule([[0, 1, 2], [3]])
        # 3 items finish in round 1, one in round 2.
        assert sum_completion_time(sched) == 3 * 1 + 1 * 2

    def test_weighted(self):
        sched = MigrationSchedule([[0], [1]])
        assert weighted_sum_completion_time(sched, {0: 10.0, 1: 1.0}) == 10.0 + 2.0
        # Missing weights default to 1.
        assert weighted_sum_completion_time(sched, {}) == 1.0 + 2.0

    def test_disk_release_sum(self):
        inst = random_instance(6, 20, seed=0)
        sched = plan(inst).schedule
        total = disk_release_sum(sched, inst)
        busy_disks = {
            n for eid in inst.graph.edge_ids() for n in inst.graph.endpoints(eid)
        }
        assert total >= len(busy_disks)  # everyone releases at round >= 1
        assert total <= len(busy_disks) * sched.num_rounds


class TestReorderByWeight:
    def test_descending_sizes_optimal_for_unweighted(self):
        ascending = MigrationSchedule([[0], [1, 2], [3, 4, 5]])
        reordered = reorder_rounds_by_weight(ascending)
        assert sum_completion_time(reordered) < sum_completion_time(ascending)
        # Exchange-argument optimum: biggest round first.
        assert [len(r) for r in reordered.rounds] == [3, 2, 1]

    def test_weighted_priorities_jump_the_queue(self):
        sched = MigrationSchedule([[0, 1], [2]])
        weights = {0: 0.1, 1: 0.1, 2: 100.0}
        reordered = reorder_rounds_by_weight(sched, weights)
        assert reordered.rounds[0] == [2]
        assert weighted_sum_completion_time(
            reordered, weights
        ) < weighted_sum_completion_time(sched, weights)

    @pytest.mark.parametrize("seed", range(5))
    def test_makespan_and_validity_preserved(self, seed):
        inst = random_instance(8, 40, seed=seed)
        sched = plan(inst).schedule
        reordered = reorder_rounds_by_weight(sched)
        assert reordered.num_rounds == sched.num_rounds
        reordered.validate(inst)

    @pytest.mark.parametrize("seed", range(5))
    def test_never_increases_objective(self, seed):
        inst = random_instance(8, 40, seed=seed + 20)
        sched = plan(inst).schedule
        reordered = reorder_rounds_by_weight(sched)
        assert sum_completion_time(reordered) <= sum_completion_time(sched)


class TestPromoteItems:
    def test_fills_slack_in_earlier_rounds(self):
        # Round 0 uses only a-b; round 1 has c-d which could run in 0.
        inst = MigrationInstance_for_promote()
        e_ab, e_cd = inst.graph.edge_ids()
        sched = MigrationSchedule([[e_ab], [e_cd]])
        sched.validate(inst)
        promoted = promote_items(sched, inst)
        assert promoted.num_rounds == 1
        assert sum_completion_time(promoted) < sum_completion_time(sched)

    @pytest.mark.parametrize("seed", range(5))
    def test_validity_makespan_and_objective(self, seed):
        inst = random_instance(9, 45, capacity_choices=(1, 2), seed=seed + 40)
        sched = plan(inst).schedule
        promoted = promote_items(sched, inst)
        promoted.validate(inst)
        assert promoted.num_rounds <= sched.num_rounds
        assert sum_completion_time(promoted) <= sum_completion_time(sched)

    def test_heavy_items_first(self):
        inst = MigrationInstance_for_promote()
        e_ab, e_cd = inst.graph.edge_ids()
        # Both edges scheduled late with round 0 empty of their disks:
        # the heavy one must land earliest.
        sched = MigrationSchedule([[e_ab], [e_cd]])
        weights = {e_cd: 100.0, e_ab: 1.0}
        promoted = promote_items(sched, inst, weights)
        assert weighted_sum_completion_time(
            promoted, weights
        ) <= weighted_sum_completion_time(sched, weights)


class TestWeightedGreedySchedule:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_complete_schedules(self, seed):
        inst = random_instance(8, 45, capacity_choices=(1, 2, 3), seed=seed)
        sched = weighted_greedy_schedule(inst)
        sched.validate(inst)

    def test_heavy_item_finishes_first(self):
        from repro.core.problem import MigrationInstance

        # Two items competing for the same unit-capacity pair.
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("a", "b")], {"a": 1, "b": 1}
        )
        e0, e1 = inst.graph.edge_ids()
        sched = weighted_greedy_schedule(inst, weights={e0: 1.0, e1: 50.0})
        assert sched.rounds[0] == [e1]

    def test_unweighted_maximal_rounds(self):
        inst = random_instance(8, 40, capacity_choices=(2,), seed=3)
        sched = weighted_greedy_schedule(inst)
        # First-fit maximality: the first round cannot accept any
        # edge scheduled later.
        first = set(sched.rounds[0])
        loads = sched.round_loads(inst, 0)
        for later in sched.rounds[1:]:
            for eid in later:
                u, v = inst.graph.endpoints(eid)
                assert (
                    loads.get(u, 0) >= inst.capacity(u)
                    or loads.get(v, 0) >= inst.capacity(v)
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_priority_latency_beats_makespan_schedule(self, seed):
        """On contended instances the priority-first packing serves
        heavy items at least as early as the makespan schedule after
        reordering + promotion."""
        import random as _r

        inst = random_instance(6, 40, capacity_choices=(1, 2), seed=seed + 60)
        rng = _r.Random(seed)
        weights = {eid: rng.choice([1.0, 1.0, 1.0, 20.0]) for eid in inst.graph.edge_ids()}
        greedy = weighted_greedy_schedule(inst, weights)
        tuned = promote_items(
            reorder_rounds_by_weight(plan(inst).schedule, weights), inst, weights
        )
        assert weighted_sum_completion_time(greedy, weights) <= (
            weighted_sum_completion_time(tuned, weights) * 1.25
        )


def MigrationInstance_for_promote():
    from repro.core.problem import MigrationInstance

    return MigrationInstance.from_moves(
        [("a", "b"), ("c", "d")], {"a": 1, "b": 1, "c": 1, "d": 1}
    )


class TestReorderForDiskRelease:
    @pytest.mark.parametrize("seed", range(5))
    def test_validity_and_makespan_preserved(self, seed):
        inst = random_instance(8, 40, capacity_choices=(1, 2), seed=seed)
        sched = plan(inst).schedule
        reordered = reorder_rounds_for_disk_release(sched, inst)
        assert reordered.num_rounds == sched.num_rounds
        reordered.validate(inst)

    @pytest.mark.parametrize("seed", range(5))
    def test_never_increases_release_sum_vs_initial(self, seed):
        inst = random_instance(8, 40, capacity_choices=(1, 2), seed=seed + 7)
        sched = plan(inst).schedule
        reordered = reorder_rounds_for_disk_release(sched, inst)
        assert disk_release_sum(reordered, inst) <= disk_release_sum(sched, inst)

    def test_single_round_noop(self):
        inst = random_instance(6, 3, capacity_choices=(4,), seed=1)
        sched = plan(inst).schedule
        if sched.num_rounds == 1:
            reordered = reorder_rounds_for_disk_release(sched, inst)
            assert reordered.rounds == sched.rounds
