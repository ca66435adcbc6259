"""Deterministic enumeration of connected node subsets, with counts.

Both exact machines in this repo maximize or prune over node subsets:

* :func:`repro.core.lower_bounds.lb2_exact_witness` maximizes the
  Lemma 3.1 density bound ``ceil(|E(S)| / floor(Σ c_v / 2))`` over
  subsets ``S``;
* the branch-and-bound solver (:mod:`repro.exact.search`) precomputes
  the same bound per subset to prune its color search.

Restricting the enumeration to *connected* subsets loses nothing: if
``S`` splits into components ``S₁, …, S_k`` with ``a_i`` internal edges
and half-capacities ``h_i``, then ``floor(Σ c / 2) ≥ Σ h_i`` (the floor
of a sum dominates the sum of floors) and the mediant inequality gives
``ceil(Σ a_i / Σ h_i) ≤ max_i ceil(a_i / h_i)`` — some component is at
least as dense as the union.  Connected enumeration is typically far
smaller than ``2^n`` on sparse instances, and never larger.

:func:`counted_subsets` is the one include/exclude tree.  It carries
each subset's internal edge count ``|E(S)|`` and capacity sum ``Σ c_v``
down the tree: including ``v`` adds ``c_v`` plus the edges from ``v``
into the current subset, read off ``v``'s multiplicity row in
``O(deg v)``; excluding ``v`` costs nothing.  A subset's bound is
therefore never recomputed from the edge list.
:func:`connected_subsets` and :func:`connected_node_subsets` are
projections of it that drop the counts.

The enumeration is deterministic: subsets are produced in a fixed order
that depends only on the (sorted) adjacency structure, never on set or
dict iteration order, so witnesses and prune tables are byte-stable
across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple

if TYPE_CHECKING:
    from repro.core.problem import MigrationInstance
    from repro.graphs.multigraph import Node

# _SEEN: on this root's frontier, or excluded by a decision above.
_FREE, _IN_SUBSET, _SEEN = 0, 1, 2


def counted_subsets(
    adjacency: Sequence[Sequence[int]],
    capacities: Sequence[int],
    min_size: int = 2,
) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
    """Yield ``(subset, edges_inside, capacity_sum)`` per connected subset.

    ``adjacency[i]`` lists the neighbour at the far end of each edge at
    node ``i``, once per edge, so a symmetric adjacency counts every
    edge exactly once in ``edges_inside``.  Self-entries and
    out-of-range entries are ignored (instances have no self-loops).
    Each yielded subset is a sorted tuple; subsets smaller than
    ``min_size`` are suppressed.

    Enumeration scheme: for each root ``r`` (ascending), enumerate the
    connected subsets whose minimum element is ``r`` by a binary
    include/exclude decision tree over an ordered frontier (a FIFO of
    discovered nodes: including ``v`` appends its unseen neighbours in
    ascending order).  Every subset corresponds to exactly one decision
    leaf (its excluded set is forced to be the full outer
    neighbourhood), so there are no duplicates and the order is a pure
    function of ``adjacency``.  The tree is walked with an explicit
    stack, so a leaf is yielded from one frame whatever its depth.
    """
    n = len(adjacency)
    # rows[i]: (neighbour, multiplicity) pairs in ascending neighbour order.
    rows: List[List[Tuple[int, int]]] = []
    for i, row in enumerate(adjacency):
        mult: Dict[int, int] = {}
        for u in row:
            if u != i and 0 <= u < n:
                mult[u] = mult.get(u, 0) + 1
        rows.append(sorted(mult.items()))
    status = [_FREE] * n

    for root in range(n):
        status[root] = _IN_SUBSET
        subset = [root]
        inside = 0
        capsum = capacities[root]
        # frontier == queue[head:]; an include appends, its undo truncates.
        queue = [u for u, _m in rows[root] if u > root]
        for u in queue:
            status[u] = _SEEN
        # One entry per decision on the current path: (head, added, gain)
        # while in v's include branch, (head, -1, 0) in its exclude branch.
        path: List[Tuple[int, int, int]] = []
        head = 0
        while True:
            if head < len(queue):
                v = queue[head]
                status[v] = _IN_SUBSET
                gain = 0
                added = 0
                for u, m in rows[v]:
                    state = status[u]
                    if state == _IN_SUBSET:
                        gain += m
                    elif state == _FREE and u > root:
                        status[u] = _SEEN
                        queue.append(u)
                        added += 1
                subset.append(v)
                inside += gain
                capsum += capacities[v]
                path.append((head, added, gain))
                head += 1
                continue
            if len(subset) >= min_size:
                yield tuple(sorted(subset)), inside, capsum
            # Backtrack to the deepest include not yet flipped to exclude.
            while path:
                at, added, gain = path.pop()
                if added < 0:
                    continue  # v's exclude branch is done too
                v = queue[at]
                subset.pop()
                inside -= gain
                capsum -= capacities[v]
                for _ in range(added):
                    status[queue.pop()] = _FREE
                status[v] = _SEEN
                path.append((at, -1, 0))
                head = at + 1
                break
            else:
                break
        for u in queue:
            status[u] = _FREE
        status[root] = _FREE


def connected_subsets(
    adjacency: Sequence[Sequence[int]], min_size: int = 2
) -> Iterator[Tuple[int, ...]]:
    """Every connected subset of ``{0, …, n-1}`` exactly once, sorted.

    :func:`counted_subsets` without the counts (same order).
    """
    zeros = [0] * len(adjacency)
    for subset, _inside, _capsum in counted_subsets(adjacency, zeros, min_size):
        yield subset


def indexed_instance(
    instance: "MigrationInstance",
) -> Tuple[List["Node"], List[List[int]], List[int]]:
    """``(nodes, adjacency, capacities)`` of an instance, by node index.

    Nodes are indexed in graph insertion order (the canonical order used
    throughout the repo), so the enumeration order — and therefore any
    first-strict-improvement witness chosen from it — is reproducible.
    ``adjacency`` lists each edge once at each endpoint, as
    :func:`counted_subsets` expects.
    """
    nodes = list(instance.graph.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adjacency: List[List[int]] = [[] for _ in nodes]
    for _eid, u, v in instance.graph.edges():
        adjacency[index[u]].append(index[v])
        adjacency[index[v]].append(index[u])
    return nodes, adjacency, [instance.capacity(v) for v in nodes]


def connected_node_subsets(
    instance: "MigrationInstance", min_size: int = 2
) -> Iterator[Tuple["Node", ...]]:
    """:func:`connected_subsets` lifted to an instance's node labels."""
    nodes, adjacency, capacities = indexed_instance(instance)
    for combo, _inside, _capsum in counted_subsets(adjacency, capacities, min_size):
        yield tuple(nodes[i] for i in combo)
