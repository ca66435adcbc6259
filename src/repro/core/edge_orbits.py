"""Edge orbits: the Section V growth structures, instrumented.

The production solver (:mod:`repro.core.general`) realizes the paper's
progress lemmas operationally through the flip engine.  This module is
the *reference* implementation of the structures those lemmas reason
about — Definition 5.5 (lean/bad edges), Definition 5.6 (edge orbits
and their growth by alternating paths) and Definition 5.7 (Δ- and
Γ-witnesses) — exposed for study, tests and the ``bench_orbits``
experiment that watches orbits grow on deliberately starved palettes.

Faithfulness notes:

* orbit *growth* follows Definition 5.6 literally: pick an orbit edge
  ``(x, y)``, colors ``a``/``b`` missing at ``x``/``y`` and *free* for
  the orbit (no orbit edge wears them), trace the ab-path from ``x``
  (Definition 5.2's conditions), and absorb it if it contributes a new
  vertex;
* *witnesses* are detected exactly as Definition 5.7 states: a node
  whose missing colors are all non-free (Δ), or an orbit whose free
  colors are all full (Γ);
* Lemma 5.3's weak-orbit *move* (uncolor a lean edge, color a bad
  edge) is realized by delegating the recoloring to the validated flip
  engine — the structural detection is faithful, the recoloring search
  is the engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.recolor import ColoringState
from repro.graphs.multigraph import EdgeId, Multigraph, Node


@dataclass
class EdgeOrbit:
    """A growing edge orbit (Definition 5.6)."""

    seed: Tuple[EdgeId, EdgeId]
    edges: Set[EdgeId] = field(default_factory=set)
    vertices: Set[Node] = field(default_factory=set)
    used_colors: Set[int] = field(default_factory=set)
    growth_steps: int = 0

    def free_colors(self, state: ColoringState[Node]) -> Set[int]:
        """Colors no orbit edge currently wears."""
        worn = {state.color[eid] for eid in self.edges if eid in state.color}
        return set(range(state.q)) - worn

    def has_lean_edge(self, state: ColoringState[Node]) -> bool:
        """Weak orbit test: a colored orbit edge whose parallels are
        all colored (Definition 5.5)."""
        graph = state.graph
        # Orbits are traced on label-keyed states, over a Multigraph.
        assert isinstance(graph, Multigraph)
        for eid in self.edges:
            if eid not in state.color:
                continue
            u, v = graph.endpoints(eid)
            if all(
                parallel in state.color for parallel in graph.edges_between(u, v)
            ):
                return True
        return False


@dataclass
class GrowthOutcome:
    """Result of one growth attempt."""

    kind: str  # "grown" | "delta_witness" | "gamma_witness" | "exhausted"
    orbit: EdgeOrbit
    witness_node: Optional[Node] = None
    added_vertices: Set[Node] = field(default_factory=set)


def seed_orbits(state: ColoringState[Node]) -> List[EdgeOrbit]:
    """One orbit per group of parallel uncolored (bad) edges."""
    graph = state.graph
    groups: Dict[Tuple[Node, Node], List[EdgeId]] = {}
    for eid in sorted(state.uncolored):
        u, v = graph.endpoints(eid)
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        groups.setdefault(key, []).append(eid)
    orbits: List[EdgeOrbit] = []
    for (u, v), eids in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        if len(eids) < 2:
            continue
        eids.sort()
        orbit = EdgeOrbit(seed=(eids[0], eids[1]))
        orbit.edges.update(eids[:2])
        orbit.vertices.update((u, v))
        orbits.append(orbit)
    return orbits


def trace_ab_path(
    state: ColoringState[Node],
    start: Node,
    a: int,
    b: int,
    max_len: Optional[int] = None,
) -> List[EdgeId]:
    """Trace (without flipping) the alternating ab-path from ``start``.

    Follows Definition 5.2's shape under capacities: beginning with an
    ``a``-colored edge at ``start`` (which must be missing ``b`` and
    not missing ``a``), alternating colors; at each node the next edge
    of the wanted color is taken if available.  The walk may revisit
    nodes (paths need not be simple) but never reuses an edge.
    """
    if not state.is_missing(start, b) or state.is_missing(start, a):
        return []
    cap = max_len if max_len is not None else 2 * max(1, state.graph.num_edges)
    path: List[EdgeId] = []
    used: Set[EdgeId] = set()
    cur = start
    want = a
    while len(path) < cap:
        candidates = [
            eid for eid in state.edges_at[cur].get(want, ()) if eid not in used
        ]
        if not candidates:
            break
        eid = min(candidates)
        path.append(eid)
        used.add(eid)
        cur = state.graph.other_endpoint(eid, cur)
        want = b if want == a else a
    return path


def grow_orbit(
    state: ColoringState[Node], orbit: EdgeOrbit, max_attempts: int = 64
) -> GrowthOutcome:
    """One growth step (Lemma 5.4): extend, or report a witness.

    Tries (edge, a, b) combinations whose colors are free for the
    orbit; absorbs the first traced path that contributes a new
    vertex.  If some orbit node misses no free color, that is a
    Δ-witness; if every free color is full over the orbit, a
    Γ-witness; otherwise ``exhausted`` (the search budget ran out
    without growth — operationally treated like a witness).
    """
    free = orbit.free_colors(state)

    # Δ-witness check (Definition 5.7, first kind).
    for v in sorted(orbit.vertices, key=repr):
        if not any(state.is_missing(v, c) for c in free):
            return GrowthOutcome("delta_witness", orbit, witness_node=v)

    # Γ-witness check (second kind): every free color full in O.
    cap_sum = sum(state.cap[v] for v in orbit.vertices)
    if free and all(
        sum(state.count(v, c) for v in orbit.vertices) >= cap_sum - 1 for c in free
    ):
        return GrowthOutcome("gamma_witness", orbit)

    attempts = 0
    for eid in sorted(orbit.edges):
        x, y = state.graph.endpoints(eid)
        for a in sorted(free):
            if not state.is_missing(x, a):
                continue
            for b in sorted(free):
                if b == a or not state.is_missing(y, b):
                    continue
                attempts += 1
                if attempts > max_attempts:
                    return GrowthOutcome("exhausted", orbit)
                # Definition 5.2: a path starting at x whose first edge
                # wears b needs x missing a and *not* missing b (the
                # trace enforces its own preconditions and returns []
                # otherwise).  The edge is unordered, so the symmetric
                # start from y is equally valid.
                for start, first, second in ((x, b, a), (y, a, b)):
                    path = trace_ab_path(state, start, first, second)
                    if not path:
                        continue
                    new_nodes: Set[Node] = set()
                    for peid in path:
                        new_nodes.update(state.graph.endpoints(peid))
                    new_nodes -= orbit.vertices
                    if not new_nodes:
                        continue
                    orbit.edges.update(path)
                    orbit.vertices.update(new_nodes)
                    orbit.used_colors.update((a, b))
                    orbit.growth_steps += 1
                    return GrowthOutcome("grown", orbit, added_vertices=new_nodes)
    return GrowthOutcome("exhausted", orbit)


def resolve_weak_orbit(state: ColoringState[Node], orbit: EdgeOrbit) -> bool:
    """Lemma 5.3's move on a weak orbit, via the flip engine.

    Attempts to color one of the orbit's uncolored edges (possibly
    after flips).  Returns True on progress; the state is validated by
    the engine's own invariants either way.
    """
    for eid in sorted(orbit.edges):
        if eid in state.uncolored and state.try_color_edge(eid):
            return True
    return False


@dataclass
class OrbitTrace:
    """Full growth trajectory of one orbit (for the bench/analysis)."""

    final_size: int
    growth_steps: int
    outcome: str
    resolved: bool


def explore_orbits(
    state: ColoringState[Node], max_growth: int = 100
) -> List[OrbitTrace]:
    """Grow every seeded orbit to its conclusion; return trajectories."""
    traces: List[OrbitTrace] = []
    for orbit in seed_orbits(state):
        outcome = "seeded"
        for _ in range(max_growth):
            result = grow_orbit(state, orbit)
            outcome = result.kind
            if result.kind != "grown":
                break
        resolved = resolve_weak_orbit(state, orbit)
        traces.append(
            OrbitTrace(
                final_size=len(orbit.vertices),
                growth_steps=orbit.growth_steps,
                outcome=outcome,
                resolved=resolved,
            )
        )
    return traces
