"""Orbit structures of Section V (Definitions 5.3–5.7).

Given a partial capacitated coloring, the uncolored edges induce
subgraphs whose structure dictates what progress is possible:

* **balancing orbit** — an uncolored component containing a node that
  *strongly* misses some color (Definition 5.3).  Lemma 5.1: an
  uncolored edge can then always be colored (possibly after an ab-path
  flip).
* **color orbit** — an uncolored component with two nodes *lightly*
  missing the same color (Definition 5.4).  Lemma 5.2: ditto.
* **bad / lean edges** (Definition 5.5) — parallel uncolored edges,
  which Phase 1 must eliminate so the residual graph ``G₀`` is simple.
* **hard orbit** — a tight component where neither structure exists;
  Lemma 5.4 says such a component either grows or exhibits a Δ- or
  Γ-**witness** (Definition 5.7), certifying that the current palette
  is within the theorem's budget and may be enlarged.

This module provides pure *detection* (no mutation); the moves
themselves live in :mod:`repro.core.recolor` and the driving loop in
:mod:`repro.core.general`.  Every function serves both key spaces of
:class:`~repro.core.recolor.ColoringState`: reports carry the state's
node keys in ``nodes`` and its edge keys, in edge-id order, in
``edges``, and every scan follows the state's orderings
(:meth:`~repro.core.recolor.ColoringState.edge_order` for edges,
:meth:`~repro.core.recolor.ColoringState.node_order` for nodes and
parallel-pair keys).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, List, Optional, Set, Tuple

from repro.core.recolor import ColoringState, N


@dataclass
class OrbitReport(Generic[N]):
    """Classification of one uncolored component."""

    nodes: Set[N]
    edges: List[int]
    kind: str  # "balancing" | "color" | "hard"
    # For balancing orbits: a (node, strongly missing color) pair.
    strong_node: Optional[Tuple[N, int]] = None
    # For color orbits: (node_a, node_b, jointly lightly missing color).
    light_pair: Optional[Tuple[N, N, int]] = None
    has_bad_edges: bool = False


def uncolored_components(state: ColoringState[N]) -> List[OrbitReport[N]]:
    """Group uncolored edges into connected components and classify.

    Components are connected via uncolored edges only, matching the
    node-induced-by-uncolored-edges notion the paper's orbits use.
    """
    graph = state.graph
    # Adjacency restricted to uncolored edges.
    adj: Dict[N, List[Tuple[int, N]]] = {}
    for eid in state.edge_order(state.uncolored):
        u, v = graph.endpoints(eid)
        adj.setdefault(u, []).append((eid, v))
        adj.setdefault(v, []).append((eid, u))

    seen: Set[N] = set()
    reports: List[OrbitReport[N]] = []
    for start in adj:
        if start in seen:
            continue
        nodes: Set[N] = {start}
        edges: Set[int] = set()
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for eid, y in adj.get(x, ()):  # noqa: B023 - local structure
                edges.add(eid)
                if y not in seen:
                    seen.add(y)
                    nodes.add(y)
                    stack.append(y)
        reports.append(_classify(state, nodes, state.edge_order(edges)))
    return reports


def _classify(
    state: ColoringState[N], nodes: Set[N], edges: List[int]
) -> OrbitReport[N]:
    strong = find_strongly_missing(state, nodes)
    if strong is not None:
        return OrbitReport(
            nodes, edges, "balancing", strong_node=strong,
            has_bad_edges=_has_bad_edges(state, edges),
        )
    pair = find_shared_lightly_missing(state, nodes)
    if pair is not None:
        return OrbitReport(
            nodes, edges, "color", light_pair=pair,
            has_bad_edges=_has_bad_edges(state, edges),
        )
    return OrbitReport(nodes, edges, "hard", has_bad_edges=_has_bad_edges(state, edges))


def find_strongly_missing(
    state: ColoringState[N], nodes: Set[N]
) -> Optional[Tuple[N, int]]:
    """A (node, color) with the color strongly missing, if any."""
    for v in state.node_order(nodes):
        for c in range(state.q):
            if state.is_strongly_missing(v, c):
                return (v, c)
    return None


def find_shared_lightly_missing(
    state: ColoringState[N], nodes: Set[N]
) -> Optional[Tuple[N, N, int]]:
    """Two nodes lightly missing the same color, if any."""
    owner: Dict[int, N] = {}
    for v in state.node_order(nodes):
        for c in range(state.q):
            if state.is_lightly_missing(v, c):
                if c in owner and owner[c] != v:
                    return (owner[c], v, c)
                owner.setdefault(c, v)
    return None


def _pair_key(state: ColoringState[N], eid: int) -> Tuple[N, ...]:
    """Endpoints of ``eid`` in node order: equal for parallel edges."""
    return tuple(state.node_order(state.graph.endpoints(eid)))


def _has_bad_edges(state: ColoringState[N], edges: List[int]) -> bool:
    pairs: Set[Tuple[N, ...]] = set()
    for eid in edges:
        key = _pair_key(state, eid)
        if key in pairs:
            return True
        pairs.add(key)
    return False


def bad_edge_groups(state: ColoringState[N]) -> List[List[int]]:
    """Groups of parallel uncolored edges (Definition 5.5's bad edges)."""
    groups: Dict[Tuple[N, ...], List[int]] = {}
    for eid in state.edge_order(state.uncolored):
        groups.setdefault(_pair_key(state, eid), []).append(eid)
    return [g for g in groups.values() if len(g) > 1]


# ----------------------------------------------------------------------
# Witness diagnostics (Definition 5.7) — used by the driver to justify
# palette growth and by the benchmarks to report why q increased.
# ----------------------------------------------------------------------

def free_colors_of_orbit(state: ColoringState[N], report: OrbitReport[N]) -> Set[int]:
    """Colors not used by any colored edge inside the orbit."""
    used: Set[int] = set()
    graph = state.graph
    # Set iteration below: the union being built is order-independent.
    for v in report.nodes:  # repro: allow-set-iter
        for c, eids in state.edges_at[v].items():
            for eid in eids:
                other = graph.other_endpoint(eid, v)
                if other in report.nodes:
                    used.add(c)
    return set(range(state.q)) - used


def is_delta_witness(state: ColoringState[N], report: OrbitReport[N]) -> bool:
    """Δ-witness: some node of the orbit misses no free color."""
    free = free_colors_of_orbit(state, report)
    for v in report.nodes:  # repro: allow-set-iter
        if not any(state.is_missing(v, c) for c in free):
            return True
    return False


def is_gamma_witness(state: ColoringState[N], report: OrbitReport[N]) -> bool:
    """Γ-witness: every free color of the orbit is full.

    A color is *full* in an orbit ``O`` when at most one vertex of
    ``O`` still has a slot for it, i.e.
    ``Σ_v E_c(v) >= Σ_v c_v - 1`` over ``O`` — it cannot color an
    uncolored edge inside ``O``.
    """
    free = free_colors_of_orbit(state, report)
    if not free:
        return True
    cap_sum = sum(state.cap[v] for v in report.nodes)
    # All colors are checked and the boolean verdict is order-independent.
    for c in free:  # repro: allow-set-iter
        used = sum(state.count(v, c) for v in report.nodes)
        if used < cap_sum - 1:
            return False
    return True
