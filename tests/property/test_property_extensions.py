"""Property-based tests for the extension modules (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import MigrationInstance
import repro
from repro.extensions.cloning import (
    CloningInstance,
    cloning_lower_bound,
    gossip_schedule,
    naive_schedule,
    validate_cloning,
)
from repro.extensions.completion_time import (
    promote_items,
    reorder_rounds_by_weight,
    sum_completion_time,
)
from repro.extensions.indirect import forwarding_schedule, validate_forwarding
from repro.extensions.space import (
    default_occupancy,
    make_space_feasible,
    spare_space,
    validate_space,
)
from repro.graphs.multigraph import Multigraph

NODES = list(range(5))

moves_strategy = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
        lambda t: t[0] != t[1]
    ),
    min_size=1,
    max_size=20,
)
caps_strategy = st.lists(st.integers(1, 4), min_size=5, max_size=5)


def instance_from(moves, caps):
    graph = Multigraph(nodes=NODES)
    for u, v in moves:
        graph.add_edge(u, v)
    return MigrationInstance(graph, dict(zip(NODES, caps)))


class TestSpaceProperties:
    @given(moves_strategy, caps_strategy, st.integers(1, 3))
    @settings(deadline=None, max_examples=60)
    def test_spare_space_plans_always_validate(self, moves, caps, spare):
        inst = instance_from(moves, caps)
        sched = repro.plan(inst).schedule
        occ = default_occupancy(inst)
        space = spare_space(inst, occ, spare=spare)
        plan = make_space_feasible(inst, sched, occupancy=occ, space=space)
        validate_space(inst, plan, occ, space)
        assert plan.num_rounds <= 6 * max(sched.num_rounds, 1)


class TestForwardingProperties:
    @given(moves_strategy, caps_strategy)
    @settings(deadline=None, max_examples=60)
    def test_forwarding_valid_and_never_below_lb1(self, moves, caps):
        inst = instance_from(moves, caps)
        result = forwarding_schedule(inst)
        validate_forwarding(inst, result)
        if result.rounds:
            assert result.num_rounds >= result.lb1
            assert result.num_rounds <= result.direct_rounds


class TestCompletionTimeProperties:
    @given(moves_strategy, caps_strategy)
    @settings(deadline=None, max_examples=60)
    def test_reorder_and_promote_never_hurt(self, moves, caps):
        inst = instance_from(moves, caps)
        sched = repro.plan(inst).schedule
        base = sum_completion_time(sched)
        reordered = reorder_rounds_by_weight(sched)
        promoted = promote_items(reordered, inst)
        promoted.validate(inst)
        assert sum_completion_time(reordered) <= base
        assert sum_completion_time(promoted) <= sum_completion_time(reordered)
        assert promoted.num_rounds <= sched.num_rounds


clone_items_strategy = st.dictionaries(
    keys=st.integers(0, 5),
    values=st.tuples(
        st.sampled_from(NODES),
        st.sets(st.sampled_from(NODES), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=5,
)


class TestCloningProperties:
    @given(clone_items_strategy, caps_strategy)
    @settings(deadline=None, max_examples=60)
    def test_gossip_and_naive_always_validate(self, raw_items, caps):
        capacities = dict(zip(NODES, caps))
        items = {}
        for item_id, (src, dests) in raw_items.items():
            if dests - {src}:
                items[item_id] = (src, dests)
        if not items:
            return
        inst = CloningInstance(items, capacities)
        gossip = gossip_schedule(inst)
        naive = naive_schedule(inst)
        validate_cloning(inst, gossip)
        validate_cloning(inst, naive)
        lb = cloning_lower_bound(inst)
        assert len(gossip) >= lb
        assert len(naive) >= lb
