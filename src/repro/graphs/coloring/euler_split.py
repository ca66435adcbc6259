"""Edge coloring by recursive Euler splitting.

The classical divide-and-conquer colorer: an Euler partition splits a
multigraph into two subgraphs whose degrees are (almost exactly)
halved; recursing until the parts are path/cycle systems (max degree
``<= 2``, 3-colorable) yields a proper coloring of roughly ``1.5Δ``
colors when ``Δ`` is a power of two.  It is the constructive engine
behind the Shannon-style bound used by Saia's 1.5-approximation
baseline (Section I of the paper) and a useful foil for the
Kempe-chain colorer in the benchmarks.

The split walks Euler circuits of the (evenized) graph and assigns
edges to the two parts alternately.  Circuits of odd length leave a +1
imbalance at their start node; we steer that imbalance onto the dummy
evenizing node whenever one exists, so real degrees stay within
``ceil(d/2) + 1`` and usually exactly ``ceil(d/2)``.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.graphs.coloring.base import inherit_palette
from repro.graphs.coloring.kempe import kempe_coloring
from repro.graphs.euler import euler_circuits
from repro.graphs.multigraph import EdgeId, Multigraph

# Below this max degree we stop splitting and hand the part to the
# Kempe colorer, which is near-exact on such sparse leftovers.
_LEAF_DEGREE = 3

_DUMMY = ("__euler_split_dummy__",)


def euler_split_coloring(graph: Multigraph) -> Dict[EdgeId, int]:
    """Properly color a multigraph by recursive Euler splitting.

    Returns ``edge_id -> color``.  Self-loops are not colorable and
    raise ``ValueError``.
    """
    for eid, u, v in graph.edges():
        if u == v:
            raise ValueError(f"self-loop {eid} cannot be properly colored")
    if graph.num_edges == 0:
        return {}
    if graph.max_degree() <= _LEAF_DEGREE:
        return kempe_coloring(graph)
    part_a, part_b = euler_split(graph)
    return inherit_palette(
        {0: euler_split_coloring(part_a), 1: euler_split_coloring(part_b)}
    )


def euler_split(graph: Multigraph) -> Tuple[Multigraph, Multigraph]:
    """Partition edges into two subgraphs of roughly halved degree.

    Every node of degree ``d`` ends with degree in
    ``[floor(d/2) - 1, ceil(d/2) + 1]`` in each part; the off-by-one
    occurs only at start nodes of odd-length Euler circuits.
    Edge ids are preserved in the parts.
    """
    work = graph.copy()
    # Evenize: connect odd-degree nodes to a dummy hub (their count is
    # even, so the hub's degree is even too).
    odd_nodes = [v for v in work.nodes if work.degree(v) % 2 == 1]
    dummy_edges: Set[EdgeId] = set()
    if odd_nodes:
        work.add_node(_DUMMY)
        for v in odd_nodes:
            dummy_edges.add(work.add_edge(_DUMMY, v))

    assignment: Dict[EdgeId, int] = {}
    for circuit in euler_circuits(work):
        if not circuit:
            continue
        # Rotate the circuit so an odd-length wrap imbalance lands on
        # the dummy hub (whose edges are discarded) when possible.
        if len(circuit) % 2 == 1 and _DUMMY in work:
            for i, (_eid, u, _v) in enumerate(circuit):
                if u == _DUMMY:
                    circuit = circuit[i:] + circuit[:i]
                    break
        for i, (eid, _u, _v) in enumerate(circuit):
            assignment[eid] = i % 2

    part_a = graph.edge_subgraph(
        eid for eid in graph.edge_ids() if assignment.get(eid) == 0
    )
    part_b = graph.edge_subgraph(
        eid for eid in graph.edge_ids() if assignment.get(eid) == 1
    )
    return part_a, part_b
