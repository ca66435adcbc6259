"""Degree-constrained bipartite subgraphs via maximum flow.

This is the "Figure 3" machinery of the paper: Step (4) of the
even-capacity algorithm repeatedly extracts from the oriented bipartite
graph ``H`` a subgraph in which each copy ``v_out``/``v_in`` is matched
*exactly* ``c_v/2`` times.  Feasibility follows from a fractional
argument (Lemma 4.1) and integrality of max-flow.

The entry point is :func:`degree_constrained_subgraph`, which is
deliberately generic (quotas per left node and per right node) so it is
reusable for other ``b``-matching needs (e.g. the Saia baseline's edge
spreading is validated against it in tests).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.flow import FlowNetwork

Node = Hashable

#: Below this many frontier-incident arcs a BFS step runs as a scalar
#: Python loop; above it, as a vectorized numpy gather.  Both compute
#: the same (order-independent) level assignment.
_BFS_VECTOR_THRESHOLD = 4096

#: The DFS current-arc scan tries this many entries as a scalar loop
#: before falling back to a vectorized scan of the rest of the row.
#: The admissible arc is usually within the first few slots (quota
#: arcs sit at the front of their rows, and early in a phase most unit
#: arcs are admissible), but saturated phases scan deep into rows of
#: tens of thousands of arcs, where numpy argmax wins by ~50x.
_DFS_SCALAR_PREFIX = 6

#: Minimum remaining-row length for the vectorized DFS scan; shorter
#: tails stay scalar (numpy call overhead would dominate).
_DFS_VECTOR_THRESHOLD = 64


class InfeasibleMatchingError(ValueError):
    """Raised when no subgraph meets every quota exactly."""


def degree_constrained_subgraph(
    edges: Sequence[Tuple[Node, Node]],
    left_quota: Dict[Node, int],
    right_quota: Dict[Node, int],
) -> List[int]:
    """Select edge indices so each node is matched exactly its quota.

    Args:
        edges: bipartite edges ``(left, right)``; parallel edges are
            allowed and are distinguished by their index.
        left_quota: required number of selected edges at each left node.
        right_quota: required number of selected edges at each right
            node.  ``sum(left_quota.values())`` must equal
            ``sum(right_quota.values())``.

    Returns:
        Indices into ``edges`` of the selected subgraph.

    Raises:
        InfeasibleMatchingError: if no exact-quota subgraph exists.
    """
    demand_left = sum(left_quota.values())
    demand_right = sum(right_quota.values())
    if demand_left != demand_right:
        raise InfeasibleMatchingError(
            f"total left quota {demand_left} != total right quota {demand_right}"
        )

    net = FlowNetwork()
    source, sink = ("__source__",), ("__sink__",)
    for left, quota in left_quota.items():
        net.add_edge(source, ("L", left), quota)
    for right, quota in right_quota.items():
        net.add_edge(("R", right), sink, quota)
    handles = [net.add_edge(("L", u), ("R", v), 1) for u, v in edges]

    value = net.max_flow(source, sink)
    if value != demand_left:
        raise InfeasibleMatchingError(
            f"max flow {value} < required {demand_left}: quotas are infeasible"
        )
    return [i for i, h in enumerate(handles) if net.flow_on(h) == 1]


class QuotaPeeler:
    """Repeated exact-quota peels over one persistent flow network.

    The array-backend replacement for calling
    :func:`degree_constrained_subgraph` once per peel: the object
    engine rebuilds a :class:`FlowNetwork` from scratch for every peel
    (re-interning every node label and re-allocating every arc), while
    this engine builds the network **once** over dense int node
    indices and between peels only resets the quota arcs and retires
    the arcs of edges picked by the previous peel.

    Byte-identity argument: a retired or reset arc is
    indistinguishable from an absent arc to Dinic — zero-capacity arcs
    are skipped by both the BFS level computation and the DFS
    current-arc scan, and ``sum(cap)`` (the ``infinity`` bound) is
    unchanged by zero entries.  Arc order per node is the insertion
    order, which matches the order ``degree_constrained_subgraph``
    would use for the same ``remaining`` subset (quota arc first, then
    unit arcs in edge order).  Hence every peel performs exactly the
    augmentations the object engine performs on its freshly built
    network, and :meth:`peel` returns exactly the same selection.

    Usage contract: ``peel`` must be called with monotonically
    shrinking ``remaining`` lists — each call's ``remaining`` must be
    the previous call's ``remaining`` minus the positions it returned
    (this is precisely the peel loop structure of the even-capacity
    and König solvers).
    """

    def __init__(
        self,
        left_quota: Sequence[int],
        right_quota: Sequence[int],
        edge_left: Sequence[int],
        edge_right: Sequence[int],
    ) -> None:
        """Build the persistent network.

        Args:
            left_quota: quota per left node index.
            right_quota: quota per right node index.
            edge_left / edge_right: endpoint indices of unit edge ``k``.
        """
        num_left = len(left_quota)
        num_right = len(right_quota)
        self._left_quota = list(left_quota)
        self._right_quota = list(right_quota)
        self._sink = 1 + num_left + num_right
        self._demand = sum(self._left_quota)
        if self._demand != sum(self._right_quota):
            raise InfeasibleMatchingError(
                f"total left quota {self._demand} != "
                f"total right quota {sum(self._right_quota)}"
            )
        # Arc layout (twin of handle h is h ^ 1), in the insertion
        # order degree_constrained_subgraph uses: source->L quota arcs,
        # R->sink quota arcs, then unit arcs in edge order.
        num_units = len(edge_left)
        self._num_units = num_units
        self._unit_base = 2 * (num_left + num_right)
        to: List[int] = []
        cap: List[int] = []
        adj: List[List[int]] = [[] for _ in range(self._sink + 1)]
        for i, q in enumerate(self._left_quota):
            h = len(to)
            to.extend((1 + i, 0))
            cap.extend((q, 0))
            adj[0].append(h)
            adj[1 + i].append(h + 1)
        for j, q in enumerate(self._right_quota):
            h = len(to)
            to.extend((self._sink, 1 + num_left + j))
            cap.extend((q, 0))
            adj[1 + num_left + j].append(h)
            adj[self._sink].append(h + 1)
        for l, r in zip(edge_left, edge_right):
            h = len(to)
            to.extend((1 + num_left + r, 1 + l))
            cap.extend((1, 0))
            adj[1 + l].append(h)
            adj[1 + num_left + r].append(h + 1)
        self._to = to
        self._cap = cap
        self._adj = adj
        self._head_np = np.array(to, dtype=np.int64)
        self._pos_np = (np.array(cap, dtype=np.int64) > 0).astype(np.uint8)
        self._retired = bytearray(num_units)
        self._retired_total = 0
        self._last_compact_retired = 0
        self._rebuild_csr()
        self._fresh = True

    def _rebuild_csr(self) -> None:
        """(Re)build the numpy row gather arrays from the Python rows.

        ``_row_arc_np`` lists every live arc handle exactly once (each
        handle sits in its tail node's row); ``_row_tail_np`` and
        ``_row_head_np`` are its parallel endpoint arrays, precomputed
        here so a BFS step is three flat vector ops instead of a
        per-row gather construction.
        """
        adj = self._adj
        ptr = [0]
        flat: List[int] = []
        tails: List[int] = []
        for v, row in enumerate(adj):
            flat.extend(row)
            tails.extend([v] * len(row))
            ptr.append(len(flat))
        self._row_ptr_np = np.array(ptr, dtype=np.int64)
        self._row_arc_np = np.array(flat, dtype=np.int64)
        self._row_tail_np = np.array(tails, dtype=np.int64)
        self._row_head_np = self._head_np[self._row_arc_np]

    def _compact(self) -> None:
        """Drop retired unit arcs from every row.

        Retired arcs have zero capacity in both directions, so they are
        invisible to the Dinic search; removing them (preserving the
        relative order of the surviving arcs) changes nothing about the
        computation except the time spent skipping dead entries.
        """
        base = self._unit_base
        retired = self._retired
        for v in range(len(self._adj)):
            row = self._adj[v]
            self._adj[v] = [
                h for h in row if h < base or not retired[(h - base) >> 1]
            ]
        self._rebuild_csr()
        self._last_compact_retired = self._retired_total

    def _dinic(self) -> int:
        """Dinic mirror specialized for the persistent quota network.

        BFS levels are computed with a vectorized numpy gather when the
        frontier is large (levels are a pure function of the residual
        graph, so any BFS implementation yields the same array); the
        blocking-flow DFS is an iterative exact mirror of the recursive
        DFS in :meth:`FlowNetwork.max_flow`, with the capacity-positivity
        numpy mirror (``_pos_np``) kept in sync on every 0 <-> positive
        transition so the next BFS sees the residual arcs.
        """
        to = self._to
        cap = self._cap
        adj = self._adj
        t = self._sink
        n = t + 1
        row_ptr = self._row_ptr_np
        row_arc = self._row_arc_np
        row_tail = self._row_tail_np
        row_head = self._row_head_np
        pos = self._pos_np
        num_slots = len(row_arc)
        total = 0
        while True:
            # BFS levels.  The level of a node is its residual BFS
            # distance from the source — a pure function of the
            # residual graph — so the scalar and vectorized variants
            # below produce the same array and the choice between them
            # is purely a constant-factor decision.
            if num_slots < _BFS_VECTOR_THRESHOLD:
                level = [-1] * n
                level[0] = 0
                frontier = [0]
                depth = 0
                while frontier:
                    depth += 1
                    nxt: List[int] = []
                    for v in frontier:
                        for h in adj[v]:
                            if cap[h] > 0:
                                w = to[h]
                                if level[w] < 0:
                                    level[w] = depth
                                    nxt.append(w)
                    frontier = nxt
                level_np = np.array(level, dtype=np.int64)
            else:
                pos_row = pos[row_arc] != 0
                level_np = np.full(n, -1, dtype=np.int64)
                level_np[0] = 0
                fmask = np.zeros(n, dtype=bool)
                fmask[0] = True
                depth = 0
                while fmask.any():
                    depth += 1
                    heads = row_head[pos_row & fmask[row_tail]]
                    seen = np.zeros(n, dtype=bool)
                    seen[heads] = True
                    fmask = seen & (level_np < 0)
                    level_np[fmask] = depth
                level = level_np.tolist()
            if level[t] < 0:
                return total
            # ``level`` (list) serves the scalar DFS scan, ``level_np``
            # the vectorized one; dead-end markings update both.
            it = [0] * n
            # Iterative blocking-flow DFS, behaviorally identical to
            # the repeated recursive ``_dfs_push`` calls of
            # FlowNetwork.max_flow: after an augmentation the recursion
            # would unwind to s and re-descend along the unchanged
            # ``it`` pointers, re-taking exactly the kept arcs (caps
            # above the first saturated arc are still positive, levels
            # unchanged) — so truncating the explicit path at that arc
            # and continuing visits the same arcs in the same order,
            # without the recursion depth limit on long residual paths.
            # The current-arc scan is hybrid: a short scalar prefix,
            # then a vectorized first-admissible-arc search (argmax on
            # the same cap>0 / level==lv predicate over the CSR row
            # slice) — both find the *same* first admissible arc, so
            # the augmentation sequence is unchanged.
            path = [0]
            arcs_stack: List[int] = []
            while path:
                v = path[-1]
                if v == t:
                    pushed = min(cap[h] for h in arcs_stack)
                    cut = len(arcs_stack)
                    for idx, h in enumerate(arcs_stack):
                        c = cap[h] - pushed
                        cap[h] = c
                        if c == 0:
                            pos[h] = 0
                            if idx < cut:
                                cut = idx
                        tw = h ^ 1
                        if cap[tw] == 0:
                            pos[tw] = 1
                        cap[tw] += pushed
                    total += pushed
                    del path[cut + 1 :]
                    del arcs_stack[cut:]
                    continue
                row = adj[v]
                nrow = len(row)
                i = it[v]
                lv = level[v] + 1
                found = -1
                scan_end = i + _DFS_SCALAR_PREFIX
                if scan_end > nrow:
                    scan_end = nrow
                while i < scan_end:
                    h = row[i]
                    if cap[h] > 0 and level[to[h]] == lv:
                        found = h
                        break
                    i += 1
                if found < 0 and i < nrow:
                    if nrow - i >= _DFS_VECTOR_THRESHOLD:
                        start = int(row_ptr[v]) + i
                        end = start + (nrow - i)
                        seg = row_arc[start:end]
                        cand = (pos[seg] != 0) & (level_np[row_head[start:end]] == lv)
                        j = int(cand.argmax())
                        if cand[j]:
                            i += j
                            found = row[i]
                        else:
                            i = nrow
                    else:
                        while i < nrow:
                            h = row[i]
                            if cap[h] > 0 and level[to[h]] == lv:
                                found = h
                                break
                            i += 1
                if found >= 0:
                    it[v] = i
                    path.append(to[found])
                    arcs_stack.append(found)
                    continue
                it[v] = i
                level[v] = -1
                level_np[v] = -1
                path.pop()
                if path:
                    it[path[-1]] += 1
                    arcs_stack.pop()

    def _set_cap(self, h: int, c: int) -> None:
        self._cap[h] = c
        self._pos_np[h] = 1 if c > 0 else 0

    def peel(self, remaining: Sequence[int]) -> List[int]:
        """Extract one exact-quota subgraph from the live edges.

        Args:
            remaining: edge positions still live, in their original
                relative order (see the usage contract above).

        Returns:
            Indices *into* ``remaining`` of the selected edges —
            the same value ``degree_constrained_subgraph`` returns for
            the equivalent freshly built subproblem.

        Raises:
            InfeasibleMatchingError: if the quotas cannot be met.
        """
        if not self._fresh:
            for i, q in enumerate(self._left_quota):
                h = 2 * i
                self._set_cap(h, q)
                self._set_cap(h ^ 1, 0)
            right_base = 2 * len(self._left_quota)
            for j, q in enumerate(self._right_quota):
                h = right_base + 2 * j
                self._set_cap(h, q)
                self._set_cap(h ^ 1, 0)
            live = self._num_units - self._retired_total
            if self._retired_total - self._last_compact_retired > max(live, 1024):
                self._compact()
        self._fresh = False
        value = self._dinic()
        if value != self._demand:
            raise InfeasibleMatchingError(
                f"max flow {value} < required {self._demand}: quotas are infeasible"
            )
        base = self._unit_base
        retired = self._retired
        # A live unit arc ends a peel at residual (1, 0) if unpicked or
        # (0, 1) if picked, so "picked" is exactly "forward residual is
        # zero" — one vectorized positivity lookup per remaining edge.
        rem = np.asarray(remaining, dtype=np.int64)
        mask = self._pos_np[base + 2 * rem] == 0
        picked_pos = np.flatnonzero(mask)
        for k in rem[picked_pos].tolist():
            h = base + 2 * k
            # Retire the edge: both directions dead from now on, so
            # later peels see it exactly as the object engine sees an
            # edge dropped from its rebuilt network.
            self._set_cap(h, 0)
            self._set_cap(h ^ 1, 0)
            retired[k] = 1
        self._retired_total += len(picked_pos)
        return picked_pos.tolist()
