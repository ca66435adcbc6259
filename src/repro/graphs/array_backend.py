"""Flat CSR array backend for the solver hot kernels.

The object engine (:class:`~repro.graphs.multigraph.Multigraph` plus the
dict-of-dict structures built on top of it) is the *reference*
implementation: easy to audit against the paper, but every adjacency
step costs a hash lookup and every temporary subgraph costs thousands
of small dict allocations.  On 100k+-edge transfer multigraphs those
constant factors dominate the near-linear algorithm of Theorem 5.1.

This module is the representation layer of the raw-speed engine:

* :class:`CompactGraph` — an immutable CSR (compressed sparse row)
  snapshot of a ``Multigraph``.  Node indices are dense ints in the
  graph's insertion order; edge indices are dense ints in ``edges()``
  enumeration order; per-node incident rows replicate
  ``incident_edges(v)`` order exactly.  Because every iteration order
  of the object engine is preserved as an array order, kernels written
  against ``CompactGraph`` can mirror the object kernels *step for
  step* and produce byte-identical schedules.
* :class:`CompactInstance` — a lowered migration instance: a
  ``CompactGraph`` plus a capacity array aligned to node indices and a
  reference to the source object instance (for the cold paths —
  lower bounds, validation — that stay on the reference engine).
* Lossless round-trip: ``CompactGraph.from_multigraph`` followed by
  :meth:`CompactGraph.to_multigraph` reproduces the original graph
  exactly — same node order, same edge ids, same per-node adjacency
  slot order, same ``next_edge_id`` high-water mark.

Iteration-order contract (load-bearing, relied on by every compact
kernel):

* ``nodes[i]`` is the i-th node of ``graph.nodes`` (dict insertion
  order of the object graph).
* ``edge_ids[e]`` is the e-th edge of ``graph.edges()`` (``_edges``
  dict insertion order).
* Row ``inc_edge[indptr[v]:indptr[v+1]]`` lists incident edge indices
  in ``graph.incident_edges(v)`` order, which the ``Multigraph``
  invariant guarantees equals the global ``edges()`` order filtered to
  the edges incident to ``v``.  Self-loops appear once per row but
  contribute 2 to ``degree``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.graphs.multigraph import EdgeId, Multigraph, Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.problem import MigrationInstance


class CompactGraph:
    """Immutable CSR snapshot of a :class:`Multigraph`.

    All structure lives in flat arrays of ints; the only objects kept
    are the original node labels and edge ids needed to lift results
    back.  Instances are snapshots: mutating the source graph after
    :meth:`from_multigraph` does not affect them, and they expose no
    mutators themselves.
    """

    __slots__ = (
        "nodes",
        "index_of",
        "num_nodes",
        "num_edges",
        "edge_ids",
        "edge_index_of",
        "edge_u",
        "edge_v",
        "indptr",
        "inc_edge",
        "inc_other",
        "degree",
        "next_edge_id",
        "_node_reprs",
        "_repr_order",
        "_repr_rank",
    )

    def __init__(
        self,
        nodes: List[Node],
        edge_ids: List[EdgeId],
        edge_u: List[int],
        edge_v: List[int],
        indptr: List[int],
        inc_edge: List[int],
        inc_other: List[int],
        degree: List[int],
        next_edge_id: EdgeId,
    ) -> None:
        self.nodes: List[Node] = nodes
        self.index_of: Dict[Node, int] = {v: i for i, v in enumerate(nodes)}
        self.num_nodes: int = len(nodes)
        self.num_edges: int = len(edge_ids)
        self.edge_ids: List[EdgeId] = edge_ids
        self.edge_index_of: Dict[EdgeId, int] = {
            eid: e for e, eid in enumerate(edge_ids)
        }
        self.edge_u: List[int] = edge_u
        self.edge_v: List[int] = edge_v
        self.indptr: List[int] = indptr
        self.inc_edge: List[int] = inc_edge
        self.inc_other: List[int] = inc_other
        self.degree: List[int] = degree
        self.next_edge_id: EdgeId = next_edge_id
        self._node_reprs: Optional[List[str]] = None
        self._repr_order: Optional[List[int]] = None
        self._repr_rank: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_multigraph(cls, graph: Multigraph) -> "CompactGraph":
        """Snapshot ``graph`` into CSR arrays, preserving every order."""
        nodes = graph.nodes
        index_of = {v: i for i, v in enumerate(nodes)}
        edge_ids: List[EdgeId] = []
        edge_index_of: Dict[EdgeId, int] = {}
        edge_u: List[int] = []
        edge_v: List[int] = []
        for eid, u, v in graph.edges():
            edge_index_of[eid] = len(edge_ids)
            edge_ids.append(eid)
            edge_u.append(index_of[u])
            edge_v.append(index_of[v])
        indptr: List[int] = [0]
        inc_edge: List[int] = []
        inc_other: List[int] = []
        degree: List[int] = []
        for v in nodes:
            vi = index_of[v]
            for eid in graph.incident_edges(v):
                e = edge_index_of[eid]
                inc_edge.append(e)
                inc_other.append(edge_v[e] if edge_u[e] == vi else edge_u[e])
            indptr.append(len(inc_edge))
            degree.append(graph.degree(v))
        return cls(
            nodes=nodes,
            edge_ids=edge_ids,
            edge_u=edge_u,
            edge_v=edge_v,
            indptr=indptr,
            inc_edge=inc_edge,
            inc_other=inc_other,
            degree=degree,
            next_edge_id=graph.next_edge_id,
        )

    def to_multigraph(self) -> Multigraph:
        """Lossless inverse of :meth:`from_multigraph`.

        Rebuilds the object graph with the original node order, edge
        ids, per-node adjacency slot order, degrees, and
        ``next_edge_id``.  Relies on the ``Multigraph`` invariant that
        per-node adjacency order equals the global edge enumeration
        order filtered to that node, so inserting edges in enumeration
        order reproduces both dict orders exactly.
        """
        g = Multigraph()
        for v in self.nodes:
            g.add_node(v)
        edge_u, edge_v, nodes = self.edge_u, self.edge_v, self.nodes
        for e, eid in enumerate(self.edge_ids):
            u = nodes[edge_u[e]]
            v = nodes[edge_v[e]]
            g.restore_edge(eid, u, v)
        g.reserve_edge_ids(self.next_edge_id)
        return g

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def incident_row(self, v: int) -> List[int]:
        """Edge indices incident to node index ``v`` (loops once)."""
        return self.inc_edge[self.indptr[v] : self.indptr[v + 1]]

    def endpoints(self, e: int) -> Tuple[int, int]:
        """Endpoint node indices of edge index ``e``."""
        return self.edge_u[e], self.edge_v[e]

    def is_self_loop(self, e: int) -> bool:
        return self.edge_u[e] == self.edge_v[e]

    def other_endpoint(self, e: int, v: int) -> int:
        u, w = self.edge_u[e], self.edge_v[e]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"node index {v} is not an endpoint of edge index {e}")

    def max_degree(self) -> int:
        return max(self.degree, default=0)

    # ------------------------------------------------------------------
    # repr machinery (mirrors ``sorted(..., key=repr)`` object idiom)
    # ------------------------------------------------------------------
    def node_reprs(self) -> List[str]:
        """``repr`` of every node, cached, aligned to node indices."""
        if self._node_reprs is None:
            self._node_reprs = [repr(v) for v in self.nodes]
        return self._node_reprs

    def repr_order(self) -> List[int]:
        """Node indices stably sorted by ``repr`` string.

        Mirrors the object engine's ``sorted(nodes, key=repr)`` idiom;
        the stable tie-break on index matches the object engine
        whenever node reprs are unique (the same precondition the
        canonical fingerprint imposes).
        """
        if self._repr_order is None:
            reprs = self.node_reprs()
            self._repr_order = sorted(range(self.num_nodes), key=reprs.__getitem__)
        return self._repr_order

    def repr_rank(self) -> List[int]:
        """Rank of each node index in :meth:`repr_order`."""
        if self._repr_rank is None:
            rank = [0] * self.num_nodes
            for pos, v in enumerate(self.repr_order()):
                rank[v] = pos
            self._repr_rank = rank
        return self._repr_rank

    def parallel_edge_groups(self) -> Dict[Tuple[int, int], List[int]]:
        """Edge indices grouped by (repr-min, repr-max) endpoint pair.

        The flat-array analogue of the object engine's parallel-edge
        grouping (``max_multiplicity`` / bad-edge orbit machinery).
        Group keys use node indices ordered by ``repr`` rank; the list
        per group is in edge enumeration order.
        """
        rank = self.repr_rank()
        groups: Dict[Tuple[int, int], List[int]] = {}
        for e in range(self.num_edges):
            u, v = self.edge_u[e], self.edge_v[e]
            key = (u, v) if rank[u] <= rank[v] else (v, u)
            groups.setdefault(key, []).append(e)
        return groups

    def max_multiplicity(self) -> int:
        """Largest parallel-edge group size (self-loops group too)."""
        groups = self.parallel_edge_groups()
        return max((len(g) for g in groups.values()), default=0)

    def __repr__(self) -> str:
        return f"CompactGraph(nodes={self.num_nodes}, edges={self.num_edges})"


@dataclass(frozen=True)
class CompactInstance:
    """A migration instance lowered onto the array representation.

    ``capacities[i]`` is the capacity of ``graph.nodes[i]``.  The
    ``source`` reference keeps the object instance reachable for the
    cold paths that intentionally stay on the reference engine (lower
    bounds, schedule validation, the residual Vizing pass) and for
    lifting results back into edge-id space.
    """

    graph: CompactGraph
    capacities: List[int]
    source: "MigrationInstance"

    def delta_prime(self) -> int:
        """``max_v ceil(degree(v) / c_v)`` — equals the object value."""
        best = 0
        caps = self.capacities
        for i, deg in enumerate(self.graph.degree):
            need = -(-deg // caps[i])
            if need > best:
                best = need
        return best

    def all_even(self) -> bool:
        return all(c % 2 == 0 for c in self.capacities)


def lower_instance(instance: "MigrationInstance") -> CompactInstance:
    """Lower an object instance to the array representation once.

    The pipeline's solve stage calls this per component; every compact
    kernel then works on dense int arrays and lifts only the final
    schedule back through ``graph.edge_ids``.
    """
    graph = CompactGraph.from_multigraph(instance.graph)
    capacities = [instance.capacity(v) for v in graph.nodes]
    return CompactInstance(graph=graph, capacities=capacities, source=instance)


def lift_rounds(graph: CompactGraph, rounds: List[List[int]]) -> List[List[EdgeId]]:
    """Map rounds of edge *indices* back to rounds of edge *ids*."""
    edge_ids = graph.edge_ids
    return [[edge_ids[e] for e in rnd] for rnd in rounds]


def lift_coloring(graph: CompactGraph, color: Dict[int, int]) -> Dict[EdgeId, int]:
    """Map an edge-index-keyed coloring to edge ids, preserving order.

    Dict insertion order is preserved so downstream bucket fills (for
    example ``MigrationSchedule.from_coloring``) see the same sequence
    as the object engine.
    """
    edge_ids = graph.edge_ids
    return {edge_ids[e]: c for e, c in color.items()}
