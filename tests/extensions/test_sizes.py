"""Tests for size-class scheduling."""

import random

import pytest

from repro import plan
from repro.extensions.sizes import size_class_schedule, size_classes, simulated_time
from tests.conftest import random_instance


def sized_instance(seed: int = 0, heavy_fraction: float = 0.1):
    rng = random.Random(seed)
    inst = random_instance(10, 80, capacity_choices=(1, 2, 4), seed=seed)
    sizes = {
        eid: (64.0 if rng.random() < heavy_fraction else 1.0)
        for eid in inst.graph.edge_ids()
    }
    return inst, sizes


class TestSizeClasses:
    def test_geometric_buckets(self):
        buckets = size_classes({0: 1.0, 1: 1.5, 2: 2.0, 3: 7.9, 4: 8.0})
        assert sorted(buckets[0]) == [0, 1]  # [1, 2)
        assert buckets[1] == [2]             # [2, 4)
        assert buckets[2] == [3]             # [4, 8)
        assert buckets[3] == [4]             # [8, 16)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            size_classes({0: 0.0})
        with pytest.raises(ValueError):
            size_classes({0: 1.0}, base=1.0)


class TestSizeClassSchedule:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_and_class_pure_rounds(self, seed):
        inst, sizes = sized_instance(seed)
        sched = size_class_schedule(inst, sizes)
        sched.validate(inst)
        buckets = size_classes(sizes)
        owner = {eid: k for k, eids in buckets.items() for eid in eids}
        for rnd in sched.rounds:
            assert len({owner[eid] for eid in rnd}) == 1

    def test_uniform_sizes_add_no_rounds(self):
        inst, _ = sized_instance(3)
        uniform = {eid: 1.0 for eid in inst.graph.edge_ids()}
        mixed = plan(inst).schedule
        classed = size_class_schedule(inst, uniform)
        assert classed.num_rounds == mixed.num_rounds

    def test_reduces_straggler_waste(self):
        """A few huge items among small ones: class separation wins."""
        inst, sizes = sized_instance(7, heavy_fraction=0.08)
        mixed = plan(inst).schedule
        classed = size_class_schedule(inst, sizes)
        t_mixed = simulated_time(inst, mixed, sizes)
        t_classed = simulated_time(inst, classed, sizes)
        assert t_classed < t_mixed


class TestSimulatedTime:
    def test_single_transfer(self):
        from repro.core.problem import MigrationInstance

        inst = MigrationInstance.uniform([("a", "b")], capacity=1)
        sched = plan(inst).schedule
        (eid,) = inst.graph.edge_ids()
        assert simulated_time(inst, sched, {eid: 5.0}) == pytest.approx(5.0)
        assert simulated_time(
            inst, sched, {eid: 5.0}, bandwidths={"a": 2.0, "b": 10.0}
        ) == pytest.approx(2.5)

    def test_round_is_max_of_members(self):
        from repro.core.problem import MigrationInstance
        from repro.core.schedule import MigrationSchedule

        inst = MigrationInstance.uniform([("a", "b"), ("c", "d")], capacity=1)
        e1, e2 = inst.graph.edge_ids()
        sched = MigrationSchedule([[e1, e2]])
        assert simulated_time(inst, sched, {e1: 1.0, e2: 9.0}) == pytest.approx(9.0)
