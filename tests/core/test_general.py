"""Tests for the Section V general-case approximation algorithm."""

import dataclasses
import math

import pytest

from repro.core.exact import exact_optimum_rounds
from repro.core.general import GeneralSolverStats, _phase1, general_schedule
from repro.core.lower_bounds import lower_bound
from repro.core.problem import MigrationInstance
from repro.core.recolor import ArrayColoringState, ColoringState
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import Multigraph
from repro.workloads import generators
from tests.conftest import random_instance


class TestBasics:
    def test_empty(self):
        inst = MigrationInstance(Multigraph(nodes=["a"]), {"a": 1})
        assert general_schedule(inst).num_rounds == 0

    def test_single_edge(self):
        inst = MigrationInstance.from_moves([("a", "b")], {"a": 1, "b": 3})
        sched = general_schedule(inst)
        sched.validate(inst)
        assert sched.num_rounds == 1

    def test_stats_populated(self):
        inst = random_instance(6, 20, seed=0)
        stats = GeneralSolverStats()
        general_schedule(inst, stats=stats)
        assert stats.lower_bound >= 1
        assert stats.initial_colors == stats.lower_bound
        assert stats.sweeps >= 1


class TestApproximationQuality:
    """Theorem 5.1: at most OPT + O(sqrt(OPT)) rounds."""

    @pytest.mark.parametrize("seed", range(15))
    def test_within_theorem_budget_random(self, seed):
        inst = random_instance(10, 10 + 6 * seed, capacity_choices=(1, 2, 3, 5), seed=seed)
        stats = GeneralSolverStats()
        sched = general_schedule(inst, stats=stats)
        sched.validate(inst)
        assert sched.num_rounds <= stats.theorem_budget()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exact_on_tiny_instances(self, seed):
        inst = random_instance(5, 8, capacity_choices=(1, 2, 3), seed=seed + 100)
        opt = exact_optimum_rounds(inst)
        sched = general_schedule(inst)
        assert opt <= sched.num_rounds <= opt + 2

    def test_unit_capacity_odd_cycle(self):
        # Odd cycle at c_v = 1 needs 3 rounds (LB2 binds, LB1 = 2).
        inst = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        sched = general_schedule(inst)
        sched.validate(inst)
        assert sched.num_rounds == 3

    def test_high_multiplicity_pair(self):
        inst = MigrationInstance.from_moves([("a", "b")] * 9, {"a": 3, "b": 2})
        sched = general_schedule(inst)
        sched.validate(inst)
        assert sched.num_rounds == 5  # ceil(9/2) binds at b

    def test_mixed_odd_capacities(self):
        moves = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        inst = MigrationInstance.from_moves(
            moves, {"a": 3, "b": 1, "c": 5, "d": 1}
        )
        sched = general_schedule(inst)
        sched.validate(inst)
        assert sched.num_rounds >= lower_bound(inst)
        assert sched.num_rounds <= lower_bound(inst) + 2


class TestDeterminismAndSeeds:
    def test_same_seed_same_schedule(self):
        inst = random_instance(8, 40, seed=5)
        a = general_schedule(inst, seed=1)
        b = general_schedule(inst, seed=1)
        assert a.rounds == b.rounds

    def test_different_seeds_still_valid(self):
        inst = random_instance(8, 40, seed=5)
        for seed in range(4):
            sched = general_schedule(inst, seed=seed)
            sched.validate(inst)


class TestFigure2:
    def test_homogeneous_unit_capacity_triangle_family(self):
        # K3 with M parallel edges per pair at c = 1 needs 3M rounds
        # (LB2 over the whole triangle: 3M edges, 1 per round).
        M = 5
        moves = []
        for pair in (("a", "b"), ("b", "c"), ("a", "c")):
            moves.extend([pair] * M)
        inst = MigrationInstance.from_moves(moves, {v: 1 for v in "abc"})
        sched = general_schedule(inst)
        sched.validate(inst)
        assert sched.num_rounds == 3 * M


def _phase1_from_low_palette(key_space, instance, solver_seed):
    """Run Phase 1 from ``lower_bound - 3`` colors in one key space.

    Returns the coloring as ``(edge id, color)`` pairs in assignment
    order, the residual edge ids (or None) and the stats.
    """
    lb = lower_bound(instance)
    q = lb - 3
    if key_space == "label":
        state = ColoringState(instance.graph, instance.capacities, q, seed=solver_seed)
    else:
        ci = lower_instance(instance)
        state = ArrayColoringState(ci.graph, ci.capacities, q, seed=solver_seed)
    stats = GeneralSolverStats()
    residual_ids = _phase1(state, instance.delta_prime(), 1.0 / math.sqrt(lb), stats)
    state.validate()
    coloring = [(state.edge_id(e), c) for e, c in state.color.items()]
    return coloring, residual_ids, stats


class TestPaletteGrowth:
    """Phase 1 below the lower bound must grow the palette, with witnesses."""

    @pytest.mark.parametrize("seed", range(10))
    def test_growth_is_witnessed_and_identical_in_both_key_spaces(self, seed):
        instance = generators.random_instance(
            10, 80, capacities={1: 0.5, 3: 0.5}, seed=seed
        )
        label = _phase1_from_low_palette("label", instance, solver_seed=0)
        index = _phase1_from_low_palette("index", instance, solver_seed=0)
        assert label[0] == index[0]
        assert label[1] == index[1]
        assert dataclasses.asdict(label[2]) == dataclasses.asdict(index[2])
        stats = label[2]
        assert stats.palette_growths > 0
        assert stats.witnessed_growths == stats.palette_growths
