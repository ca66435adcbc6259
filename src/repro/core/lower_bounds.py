"""The two lower bounds of Section III, with machine-checkable witnesses.

* ``LB1 = Δ' = max_v ceil(d_v / c_v)`` — a disk can move at most
  ``c_v`` items per round.
* ``LB2 = Γ' = max_{S ⊆ V} ceil(|E(S)| / floor(Σ_{v in S} c_v / 2))``
  — a round schedules at most ``floor(Σ_{v∈S} c_v / 2)`` edges inside
  ``S`` (Lemma 3.1).

``LB2`` maximizes over exponentially many subsets.  :func:`lb2_exact`
enumerates subsets and is intended for small graphs
(``n <= EXACT_LB2_NODE_LIMIT``);
:func:`lb2` evaluates a polynomial family of candidate subsets (node
pairs, components, capacity-aware peeling orders) and is a certified
lower bound — every candidate's value is a true bound, we simply may
not find the maximizing ``S``.  The benchmark ``bench_lb_bounds``
measures how often the heuristic matches the exact value.

Every bound comes in a witness-producing form (:func:`lb1_witness`,
:func:`lb2_witness`, :func:`lb2_exact_witness`): the returned node /
subset is a self-contained proof of the bound that
:mod:`repro.checks.certify` re-verifies without trusting this module.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Node

#: Node-count cutoff below which LB2 is computed by exhaustive subset
#: enumeration (at most ``2^n`` connected subsets, each reached by one
#: include that costs ``O(deg v)`` — at 14 nodes that is ~16k subsets,
#: milliseconds; every extra node doubles the budget).  The single
#: source of truth: :func:`lb2_exact`, :func:`lower_bound` and
#: :mod:`repro.checks.certify` all key off it, so "exact when small"
#: means the same thing everywhere.
EXACT_LB2_NODE_LIMIT = 14


def lb1(instance: MigrationInstance) -> int:
    """``Δ' = max_v ceil(d_v / c_v)``."""
    return instance.delta_prime()


def lb1_witness(instance: MigrationInstance) -> Tuple[Optional[Node], int]:
    """``(argmax_v ceil(d_v / c_v), Δ')``; ``(None, 0)`` if no nodes.

    Ties are broken toward the node with the smallest ``repr`` so the
    witness is reproducible across processes.
    """
    best_node: Optional[Node] = None
    best_value = 0
    for v in instance.graph.nodes:
        value = instance.constrained_degree(v)
        if value > best_value:
            best_node, best_value = v, value
        elif value == best_value and value > 0 and repr(v) < repr(best_node):
            best_node = v
    if best_value == 0:
        return (None, 0)
    return (best_node, best_value)


def subset_bound(instance: MigrationInstance, subset: Iterable[Node]) -> int:
    """The LB2 term for one subset ``S`` (0 if S has no internal edges).

    ``ceil(|E(S)| / floor(Σ c_v / 2))``; if the capacity sum inside S
    is < 2 no transfer can happen inside S at all, so any internal edge
    would make the instance infeasible — we return a harmless 0 for
    empty E(S) and raise otherwise.
    """
    nodes = set(subset)
    edges_inside = sum(
        1 for _eid, u, v in instance.graph.edges() if u in nodes and v in nodes
    )
    if edges_inside == 0:
        return 0
    half_capacity = sum(instance.capacity(v) for v in nodes) // 2
    if half_capacity == 0:
        raise _no_capacity_error(nodes)
    return math.ceil(edges_inside / half_capacity)


def _no_capacity_error(subset: Iterable[Node]) -> ValueError:
    return ValueError(
        f"subset {sorted(subset, key=repr)!r} has internal edges but capacity sum < 2"
    )


def lb2_exact(instance: MigrationInstance, max_nodes: int = EXACT_LB2_NODE_LIMIT) -> int:
    """Exact ``Γ'`` by exhaustive subset enumeration.

    Raises:
        ValueError: if the graph has more than ``max_nodes`` nodes
            (the enumeration is exponential).
    """
    return lb2_exact_witness(instance, max_nodes=max_nodes)[1]


def lb2_exact_witness(
    instance: MigrationInstance, max_nodes: int = EXACT_LB2_NODE_LIMIT
) -> Tuple[List[Node], int]:
    """Exact ``Γ'`` plus a maximizing subset (empty list when Γ' = 0).

    Enumerates *connected* subsets with the shared
    :func:`repro.exact.subsets.counted_subsets` tree (also used by the
    branch-and-bound pruner), which hands over each subset's ``|E(S)|``
    and ``Σ c_v`` with it, so no subset is rescanned.  The connected
    restriction is lossless: a disconnected maximizer splits into
    components whose half-capacities sum to at most the union's (floor
    superadditivity) and the mediant inequality then bounds the union's
    density term by its densest component — see
    :mod:`repro.exact.subsets`.  The witness is the first subset, in
    enumeration order, that attains the maximum.

    Raises:
        ValueError: if the graph has more than ``max_nodes`` nodes
            (the enumeration is exponential), or if a subset has
            internal edges but capacity sum < 2.
    """
    # Imported lazily: repro.exact sits above repro.core in the layer
    # order, and its search module imports this one.
    from repro.exact.subsets import counted_subsets, indexed_instance

    if instance.graph.num_nodes > max_nodes:
        raise ValueError(
            f"exact LB2 is exponential; graph has {instance.graph.num_nodes} "
            f"> {max_nodes} nodes"
        )
    nodes, adjacency, capacities = indexed_instance(instance)
    best = 0
    best_combo: Tuple[int, ...] = ()
    for combo, inside, capsum in counted_subsets(adjacency, capacities):
        if inside == 0:
            continue
        half = capsum // 2
        if half == 0:
            raise _no_capacity_error(nodes[i] for i in combo)
        value = math.ceil(inside / half)
        if value > best:
            best = value
            best_combo = combo
    return [nodes[i] for i in best_combo], best


def lb2(instance: MigrationInstance) -> int:
    """Heuristic (but certified) ``Γ'`` over candidate subsets.

    See :func:`lb2_witness` for the candidate family.
    """
    return lb2_witness(instance)[1]


def lb2_witness(instance: MigrationInstance) -> Tuple[List[Node], int]:
    """Heuristic ``Γ'`` plus the best witness subset found.

    Candidates evaluated:

    * every node pair with at least one edge (captures multiplicity
      hot-spots, the common binding case);
    * the whole node set and every connected component;
    * every prefix of a capacity-aware peeling order per component:
      repeatedly delete the node with the smallest
      ``internal_degree / c_v`` ratio, evaluating the bound after each
      deletion (generalizes the classic densest-subgraph peeling).

    Returns ``(subset, value)``; the subset is empty iff the value is 0.
    The subset is a *witness*: ``subset_bound(instance, subset)`` equals
    the returned value, so downstream certification never has to trust
    the maximization itself.
    """
    graph = instance.graph
    best = 0
    best_subset: List[Node] = []

    # Node pairs with edges.
    pair_edges: Dict[Tuple[Node, Node], int] = {}
    for _eid, u, v in graph.edges():
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        pair_edges[key] = pair_edges.get(key, 0) + 1
    for (u, v), m in pair_edges.items():
        half = (instance.capacity(u) + instance.capacity(v)) // 2
        if half > 0:
            value = math.ceil(m / half)
            if value > best:
                best = value
                best_subset = [u, v]

    # Components and their peeling prefixes.
    for component in graph.connected_components():
        if len(component) < 2:
            continue
        value = subset_bound(instance, component)
        if value > best:
            best = value
            best_subset = sorted(component, key=repr)
        peel_subset, peel_value = _peel(instance, component)
        if peel_value > best:
            best = peel_value
            best_subset = peel_subset
    return best_subset, best


def _peel(
    instance: MigrationInstance, component: Set[Node]
) -> Tuple[List[Node], int]:
    """Best LB2 prefix along a capacity-aware peeling of ``component``.

    Repeatedly removes the live node with the smallest
    ``(internal_degree / c_v, repr(v))`` key, evaluating the bound
    before each removal.  The minimum comes off a heap with lazy
    deletion: a removal pushes one fresh entry per distinct live
    neighbour, and a popped entry whose degree is out of date is
    skipped, so a peel costs ``O((n + m) log n)`` with at most
    ``n + m`` pops.  Returns ``(subset, value)`` for the best prefix
    encountered, the subset sorted by ``repr``.
    """
    graph = instance.graph
    # Index nodes in repr order: the index then doubles as the repr
    # tie-break of the heap key, and a prefix is already sorted.
    members = sorted(component, key=repr)
    n = len(members)
    index = {v: i for i, v in enumerate(members)}
    caps = [instance.capacity(v) for v in members]
    # rows[i]: neighbour index -> multiplicity, over distinct neighbours.
    rows: List[Dict[int, int]] = []
    degree = [0] * n
    for i, v in enumerate(members):
        mult: Dict[int, int] = {}
        for eid in graph.incident_edges(v):
            j = index.get(graph.other_endpoint(eid, v))
            if j is not None:
                mult[j] = mult.get(j, 0) + 1
        rows.append(mult)
        degree[i] = sum(mult.values())
    edges_inside = sum(degree) // 2
    capacity_sum = sum(caps)

    heap = [(degree[i] / caps[i], i, degree[i]) for i in range(n)]
    heapq.heapify(heap)
    removed_at = [n] * n  # n while the node is live
    best = 0
    best_step = 0
    step = 0
    while n - step >= 2 and edges_inside > 0:
        half = capacity_sum // 2
        if half > 0:
            value = math.ceil(edges_inside / half)
            if value > best:
                best = value
                best_step = step
        # Remove the node contributing least density per unit capacity.
        while True:
            _ratio, victim, seen_degree = heapq.heappop(heap)
            if removed_at[victim] == n and seen_degree == degree[victim]:
                break
        removed_at[victim] = step
        step += 1
        capacity_sum -= caps[victim]
        for j, m in rows[victim].items():
            if removed_at[j] == n:
                degree[j] -= m
                edges_inside -= m
                heapq.heappush(heap, (degree[j] / caps[j], j, degree[j]))
    if best == 0:
        return [], 0
    return [members[i] for i in range(n) if removed_at[i] >= best_step], best


def lower_bound(instance: MigrationInstance) -> int:
    """``max(LB1, LB2)`` — the certified lower bound used everywhere.

    LB2 is exact when the graph has at most :data:`EXACT_LB2_NODE_LIMIT`
    nodes and heuristic otherwise.
    """
    if instance.graph.num_nodes <= EXACT_LB2_NODE_LIMIT:
        gamma = lb2_exact(instance, max_nodes=EXACT_LB2_NODE_LIMIT)
    else:
        gamma = lb2(instance)
    return max(lb1(instance), gamma)
