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

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Node

#: Node-count cutoff below which LB2 is computed by exhaustive subset
#: enumeration (``2^n`` subsets, each an ``O(m)`` scan — at 14 nodes
#: that is ~16k subsets, milliseconds; every doubling of the budget
#: costs 2×).  The single source of truth: :func:`lb2_exact`,
#: :func:`lower_bound` and :mod:`repro.checks.certify` all key off it,
#: so "exact when small" means the same thing everywhere.
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
        raise ValueError(f"subset {nodes!r} has internal edges but capacity sum < 2")
    return math.ceil(edges_inside / half_capacity)


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

    Enumerates *connected* subsets via the shared
    :func:`repro.exact.subsets.connected_node_subsets` iterator (also
    used by the branch-and-bound pruner).  That restriction is lossless:
    a disconnected maximizer splits into components whose half-capacities
    sum to at most the union's (floor superadditivity) and the mediant
    inequality then bounds the union's density term by its densest
    component — see :mod:`repro.exact.subsets`.

    Raises:
        ValueError: if the graph has more than ``max_nodes`` nodes
            (the enumeration is exponential).
    """
    # Imported lazily: repro.exact sits above repro.core in the layer
    # order, and its search module imports this one.
    from repro.exact.subsets import connected_node_subsets

    nodes = instance.graph.nodes
    if len(nodes) > max_nodes:
        raise ValueError(
            f"exact LB2 is exponential; graph has {len(nodes)} > {max_nodes} nodes"
        )
    best = 0
    best_subset: List[Node] = []
    for combo in connected_node_subsets(instance, min_size=2):
        value = subset_bound(instance, combo)
        if value > best:
            best = value
            best_subset = list(combo)
    return best_subset, best


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

    Returns ``(subset, value)`` for the best prefix encountered.
    """
    graph = instance.graph
    nodes = set(component)
    # Zero-init counter; only read by key, order never escapes.
    internal_degree: Dict[Node, int] = {v: 0 for v in nodes}  # repro: allow-set-iter
    edges_inside = 0
    for _eid, u, v in graph.edges():
        if u in nodes and v in nodes:
            internal_degree[u] += 1
            internal_degree[v] += 1
            edges_inside += 1
    capacity_sum = sum(instance.capacity(v) for v in nodes)

    best = 0
    best_subset: List[Node] = []
    while len(nodes) >= 2 and edges_inside > 0:
        half = capacity_sum // 2
        if half > 0:
            value = math.ceil(edges_inside / half)
            if value > best:
                best = value
                best_subset = sorted(nodes, key=repr)
        # Remove the node contributing least density per unit capacity.
        victim = min(
            nodes, key=lambda v: (internal_degree[v] / instance.capacity(v), repr(v))
        )
        nodes.discard(victim)
        capacity_sum -= instance.capacity(victim)
        for eid in graph.incident_edges(victim):
            other = graph.other_endpoint(eid, victim)
            if other in nodes:
                internal_degree[other] -= 1
                edges_inside -= 1
        internal_degree.pop(victim, None)
    return best_subset, best


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
