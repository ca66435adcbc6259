"""Capacitated partial edge colorings and alternating-path flips.

This is the engine room of the Section V algorithm.  A *capacitated*
coloring allows color ``c`` to appear up to ``c_v`` times at node
``v``; the paper's Definitions 5.1–5.2 and Figure 4 are implemented
here, once, for two key spaces:

* :class:`ColoringState` — a partial coloring over ``q`` colors with
  per-node per-color counts and the *missing* / *strongly missing* /
  *lightly missing* predicates of Definition 5.1.  Constructed over a
  :class:`~repro.graphs.multigraph.Multigraph`, it is keyed by node
  labels and edge ids (the ``plan_delta`` patch, the greedy baseline,
  :mod:`repro.core.edge_orbits`).
* :class:`ArrayColoringState` — the same state over a
  :class:`~repro.graphs.array_backend.CompactGraph`, keyed by dense
  node and edge indices (the production ``general`` kernel).  It
  supplies only its constructor and the key-space hooks
  (:meth:`~ColoringState.edge_order`, :meth:`~ColoringState.node_order`
  and the two naming hooks used by error messages and lifting).
* :meth:`ColoringState.attempt_flip` — an ab-path flip (Definition
  5.2).  Unlike the ``c_v = 1`` case, an alternating path need not be
  simple: the walk flips edges ``a→b, b→a, …`` and may revisit nodes;
  internal visits are capacity-neutral and only the two endpoints'
  counts change.  The walk is validated against pending deltas and is
  applied atomically — on failure the state is untouched.
* :meth:`ColoringState.try_color_edge` — color one uncolored edge
  using a common missing color directly, or after flips that free a
  color at an endpoint (the operational content of Lemmas 5.1–5.3).

Palette lookups are bit operations.  Next to the per-color counts the
state keeps one Python-int mask per node, ``full[v]``, whose bit ``c``
is set exactly when ``counts[v][c] >= c_v`` (color ``c`` is saturated
at ``v``).  :meth:`ColoringState._bump` is the only place counts
change, and it flips the bit whenever a count crosses ``c_v``, so the
*smallest common missing color* of an edge ``uv`` is the lowest set
bit of ``~(full[u] | full[v])`` within the palette — one lookup
instead of a scan over ``q`` colors.  Capacities are positive, so a
color added by :meth:`ColoringState.add_color` starts free and needs
no mask update.  :meth:`ColoringState.validate` recomputes the masks
from scratch.

Both key spaces perform the same sequence of assigns and recolors on
the same insertion-ordered dicts and consume the same seeded RNG, so
an index-keyed run lifted through ``edge_ids`` is the label-keyed run.
"""

from __future__ import annotations

import random
from typing import (
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.core.errors import ScheduleValidationError
from repro.graphs.array_backend import CompactGraph
from repro.graphs.multigraph import EdgeId, Multigraph, Node

# Budget of (a, b) pairs tried by try_color_edge before giving up.
DEFAULT_PAIR_BUDGET = 32
# Hard cap on alternating-walk length, as a multiple of |E|.
_WALK_CAP_FACTOR = 2

#: Node key of a state: a node label, or a CSR node index.
N = TypeVar("N", bound=Hashable)
_K = TypeVar("_K", contravariant=True)
_V = TypeVar("_V", covariant=True)
_T = TypeVar("_T")


class Lookup(Protocol[_K, _V]):
    """Read access by node key: a dict over labels, a list over indices."""

    def __getitem__(self, key: _K, /) -> _V: ...


class Table(Protocol[_K, _T]):
    """Read-write access by node key: a dict over labels, a list over indices."""

    def __getitem__(self, key: _K, /) -> _T: ...

    def __setitem__(self, key: _K, value: _T, /) -> None: ...


class GraphView(Protocol[N]):
    """What the engine reads of a graph; edges are keyed by ``int``."""

    @property
    def num_edges(self) -> int: ...

    def endpoints(self, e: int, /) -> Tuple[N, N]: ...

    def other_endpoint(self, e: int, v: N, /) -> N: ...


class ColoringState(Generic[N]):
    """A partial capacitated edge coloring with ``q`` colors.

    Edge keys are ints in both key spaces: edge ids here, edge indices
    in :class:`ArrayColoringState`.

    Args:
        graph: the transfer multigraph (self-loops allowed; a self-loop
            counts twice toward its node's per-color count).
        capacities: ``c_v`` per node.
        num_colors: initial palette size ``q``; grows via
            :meth:`add_color`.
    """

    graph: GraphView[N]
    cap: Lookup[N, int]
    q: int
    # Insertion order is the assignment history.
    color: Dict[int, int]
    # counts[v][c]: colored edge-ends of color c at v.
    counts: Lookup[N, Dict[int, int]]
    # edges_at[v][c]: the edge keys realizing counts[v][c], as an
    # insertion-ordered dict used as an ordered set.  Iteration order
    # shapes which edge an ab-walk flips, so it must be a deterministic
    # function of the assignment history — dict insertion order is
    # exactly that, whereas a set of ints iterates in a hash-table
    # order that depends on the key values, which differ between the
    # two key spaces.
    edges_at: Lookup[N, Dict[int, Dict[int, None]]]
    # full[v]: bit c set exactly when counts[v][c] >= c_v (color c is
    # saturated at v).  Maintained by _bump alone.
    full: Table[N, int]
    # Every node key, in graph order (validate's mask recount).
    node_keys: Sequence[N]
    uncolored: Set[int]
    _rng: random.Random

    def __init__(
        self: "ColoringState[Node]",
        graph: Multigraph,
        capacities: Mapping[Node, int],
        num_colors: int,
        seed: int = 0,
    ) -> None:
        counts: Dict[Node, Dict[int, int]] = {v: {} for v in graph.nodes}
        edges_at: Dict[Node, Dict[int, Dict[int, None]]] = {v: {} for v in graph.nodes}
        self.graph = graph
        self.cap = dict(capacities)
        self.q = num_colors
        self.color = {}
        self.counts = counts
        self.edges_at = edges_at
        self.full = {v: 0 for v in graph.nodes}
        self.node_keys = graph.nodes
        self.uncolored = set(graph.edge_ids())
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # key-space hooks (ArrayColoringState overrides all four)
    # ------------------------------------------------------------------
    def edge_id(self, e: int) -> EdgeId:
        """The edge id that edge key ``e`` stands for."""
        return e

    def node_label(self, v: N) -> Node:
        """The node label that node key ``v`` stands for."""
        return v

    def edge_order(self, edges: Iterable[int]) -> List[int]:
        """``edges`` in ascending edge-id order (sweeps, edge lists)."""
        return sorted(edges)

    def node_order(self, nodes: Iterable[N]) -> List[N]:
        """``nodes`` in ``repr`` order (orbit scans, pair keys)."""
        return sorted(nodes, key=repr)

    # ------------------------------------------------------------------
    # predicates (Definition 5.1)
    # ------------------------------------------------------------------
    def count(self, v: N, c: int) -> int:
        return self.counts[v].get(c, 0)

    def is_missing(self, v: N, c: int) -> bool:
        """Color ``c`` is missing at ``v``: fewer than ``c_v`` uses."""
        return not self.full[v] >> c & 1

    def is_strongly_missing(self, v: N, c: int) -> bool:
        """``E_c(v) < c_v - 1`` (at least two uses still available)."""
        return self.count(v, c) < self.cap[v] - 1

    def is_lightly_missing(self, v: N, c: int) -> bool:
        """``E_c(v) == c_v - 1`` (exactly one use available)."""
        return self.count(v, c) == self.cap[v] - 1

    def is_saturated(self, v: N, c: int) -> bool:
        return bool(self.full[v] >> c & 1)

    def missing_colors(self, v: N) -> List[int]:
        """All colors missing at ``v`` (ascending)."""
        free = ~self.full[v] & ((1 << self.q) - 1)
        # Binary digits reversed: character c is bit c.
        return [c for c, bit in enumerate(bin(free)[:1:-1]) if bit == "1"]

    def strongly_missing_colors(self, v: N) -> List[int]:
        return [c for c in range(self.q) if self.is_strongly_missing(v, c)]

    def common_missing_color(self, u: N, v: N) -> Optional[int]:
        """Smallest color missing at both endpoints, or None.

        For a self-loop caller (``u == v``) this demands two free slots
        (the loop contributes twice at its node).
        """
        if u == v:
            for c in range(self.q):
                if self.is_strongly_missing(u, c):
                    return c
            return None
        free = ~(self.full[u] | self.full[v]) & ((1 << self.q) - 1)
        return (free & -free).bit_length() - 1 if free else None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_color(self) -> int:
        """Grow the palette by one; returns the new color index."""
        self.q += 1
        return self.q - 1

    def _bump(self, v: N, c: int, delta: int, eid: EdgeId, adding: bool) -> None:
        at_v = self.counts[v]
        before = at_v.get(c, 0)
        after = before + delta
        at_v[c] = after
        cap = self.cap[v]
        if (before >= cap) != (after >= cap):
            self.full[v] ^= 1 << c
        slot = self.edges_at[v].setdefault(c, {})
        if adding:
            slot[eid] = None
        else:
            slot.pop(eid, None)

    def assign(self, eid: EdgeId, c: int) -> None:
        """Color uncolored edge ``eid`` with ``c`` (capacity-checked)."""
        if eid in self.color:
            raise ScheduleValidationError(f"edge {self.edge_id(eid)} already colored")
        u, v = self.graph.endpoints(eid)
        need = 2 if u == v else 1
        if self.count(u, c) + need > self.cap[u] or (
            u != v and self.count(v, c) + 1 > self.cap[v]
        ):
            raise ScheduleValidationError(
                f"assigning color {c} to edge {self.edge_id(eid)} violates a constraint"
            )
        self.color[eid] = c
        self.uncolored.discard(eid)
        if u == v:
            self._bump(u, c, 2, eid, adding=True)
        else:
            self._bump(u, c, 1, eid, adding=True)
            self._bump(v, c, 1, eid, adding=True)

    def unassign(self, eid: EdgeId) -> int:
        """Uncolor edge ``eid``; returns the color it had."""
        c = self.color.pop(eid)
        self.uncolored.add(eid)
        u, v = self.graph.endpoints(eid)
        if u == v:
            self._bump(u, c, -2, eid, adding=False)
        else:
            self._bump(u, c, -1, eid, adding=False)
            self._bump(v, c, -1, eid, adding=False)
        return c

    def _recolor(self, eid: EdgeId, new: int) -> None:
        """Internal: change the color of a colored edge (no cap check)."""
        old = self.color[eid]
        u, v = self.graph.endpoints(eid)
        if u == v:
            self._bump(u, old, -2, eid, adding=False)
            self._bump(u, new, 2, eid, adding=True)
        else:
            self._bump(u, old, -1, eid, adding=False)
            self._bump(v, old, -1, eid, adding=False)
            self._bump(u, new, 1, eid, adding=True)
            self._bump(v, new, 1, eid, adding=True)
        self.color[eid] = new

    # ------------------------------------------------------------------
    # ab-path flips (Definition 5.2 / Figure 4)
    # ------------------------------------------------------------------
    def attempt_flip(self, start: N, from_color: int, to_color: int) -> bool:
        """Flip an alternating walk starting at ``start``.

        The walk flips an edge colored ``from_color`` at ``start`` to
        ``to_color`` (so ``start`` must be missing ``to_color``), then
        cascades: whenever the far endpoint would exceed its constraint
        in the new color, one of its edges in that color is flipped
        back to the old color, and so on.  Internal nodes are
        capacity-neutral; the walk ends the first time the far endpoint
        can absorb the new color.

        Returns True and applies the flip atomically if a valid walk is
        found; returns False leaving the state untouched.
        """
        if from_color == to_color:
            return False
        if not self.is_missing(start, to_color):
            return False
        slots = self.edges_at[start].get(from_color)
        if not slots:
            return False

        cap = self.cap
        walk_len_cap = _WALK_CAP_FACTOR * max(1, self.graph.num_edges)
        # pending[(v, c)] = delta vs. committed counts during the walk.
        pending: Dict[Tuple[N, int], int] = {}
        new_color_of: Dict[EdgeId, int] = {}
        used: Set[EdgeId] = set()

        def eff(v: N, c: int) -> int:
            return self.count(v, c) + pending.get((v, c), 0)

        def flip_edge(eid: EdgeId, old: int, new: int, x: N, y: N) -> None:
            new_color_of[eid] = new
            used.add(eid)
            if x == y:
                pending[(x, old)] = pending.get((x, old), 0) - 2
                pending[(x, new)] = pending.get((x, new), 0) + 2
            else:
                for node in (x, y):
                    pending[(node, old)] = pending.get((node, old), 0) - 1
                    pending[(node, new)] = pending.get((node, new), 0) + 1

        def pick_edge(v: N, want: int, target: int) -> Optional[EdgeId]:
            """An unused edge at ``v`` of color ``want``, to flip to ``target``.

            Prefers an edge whose far endpoint can absorb ``target``
            immediately (ending the walk).
            """
            best: Optional[EdgeId] = None
            for eid in self.edges_at[v].get(want, ()):  # committed color
                if eid in used or new_color_of.get(eid, want) != want:
                    continue
                other = self.graph.other_endpoint(eid, v)
                if other != v and eff(other, target) < cap[other]:
                    return eid
                if best is None:
                    best = eid
            return best

        cur = start
        f_from, f_to = from_color, to_color
        steps = 0
        while True:
            steps += 1
            if steps > walk_len_cap:
                return False
            eid = pick_edge(cur, f_from, f_to)
            if eid is None:
                return False
            other = self.graph.other_endpoint(eid, cur)
            if other == cur:
                # A self-loop flip changes its node by ±2; only valid
                # if the node absorbs both, which contradicts the walk
                # invariant (cur is saturated in f_to) — skip loops by
                # failing this walk.
                return False
            flip_edge(eid, f_from, f_to, cur, other)
            if eff(other, f_to) <= cap[other]:
                break  # `other` absorbed the new color: walk complete.
            # `other` now exceeds f_to; continue by flipping one of its
            # f_to edges back to f_from.
            cur = other
            f_from, f_to = f_to, f_from

        # Validate all pending deltas (paranoia: endpoints only).
        for (v, c), _d in pending.items():
            if eff(v, c) > cap[v] or eff(v, c) < 0:
                return False
        for eid, new in new_color_of.items():
            self._recolor(eid, new)
        return True

    def try_color_edge(
        self, eid: EdgeId, pair_budget: int = DEFAULT_PAIR_BUDGET
    ) -> bool:
        """Color one uncolored edge, flipping ab-paths if necessary.

        Implements the operational content of Lemmas 5.1–5.2: first
        look for a common missing color; otherwise, for colors ``a``
        missing at one endpoint and ``b`` missing at the other, flip an
        ab-walk to free a shared color.  Returns True on success.
        """
        u, v = self.graph.endpoints(eid)
        c = self.common_missing_color(u, v)
        if c is not None:
            self.assign(eid, c)
            return True
        if u == v:
            return False

        miss_u = self.missing_colors(u)
        miss_v = self.missing_colors(v)
        if not miss_u or not miss_v:
            return False
        pairs = [(a, b) for a in miss_u for b in miss_v if a != b]
        self._rng.shuffle(pairs)
        for a, b in pairs[:pair_budget]:
            # Free color a at v by flipping an a-walk at v into b — or
            # free b at u symmetrically; whichever works first.
            if self.is_saturated(v, a) and self.attempt_flip(v, a, b):
                c = self.common_missing_color(u, v)
                if c is not None:
                    self.assign(eid, c)
                    return True
            if self.is_saturated(u, b) and self.attempt_flip(u, b, a):
                c = self.common_missing_color(u, v)
                if c is not None:
                    self.assign(eid, c)
                    return True
        return False

    def preload(self, coloring: Mapping[EdgeId, int]) -> List[EdgeId]:
        """Warm-start the state from a prior (possibly stale) coloring.

        Edges are admitted in ascending edge-id order; an entry is
        *rejected* — left uncolored, never partially applied — when its
        color falls outside the current palette or would violate a
        transfer constraint (both happen when the instance changed
        under the prior plan: shrunken capacities, removed parallel
        edges freeing slots other survivors now contend for, …).
        Entries for edges the graph does not contain raise, because the
        caller was supposed to restrict the coloring first (see
        :meth:`repro.core.schedule.MigrationSchedule.restrict`).

        Returns the rejected edge ids, ascending.  This is the repair
        entry point of incremental replanning: reject list + still
        uncolored edges are then driven through
        :meth:`try_color_edge`.
        """
        rejected: List[EdgeId] = []
        for eid in self.edge_order(coloring):
            u, v = self.graph.endpoints(eid)
            c = coloring[eid]
            need = 2 if u == v else 1
            if (
                not 0 <= c < self.q
                or self.count(u, c) + need > self.cap[u]
                or (u != v and self.count(v, c) + 1 > self.cap[v])
            ):
                rejected.append(eid)
                continue
            self.assign(eid, c)
        return rejected

    # ------------------------------------------------------------------
    # validation / export
    # ------------------------------------------------------------------
    def validate(self, require_complete: bool = False) -> None:
        """Recompute all counts and saturated masks from scratch and compare.

        Raises:
            ScheduleValidationError: on any inconsistency or capacity
                violation, naming node labels and edge ids.
        """
        if require_complete and self.uncolored:
            raise ScheduleValidationError(f"{len(self.uncolored)} edges uncolored")
        fresh: Dict[N, Dict[int, int]] = {}
        for eid, c in self.color.items():
            u, v = self.graph.endpoints(eid)
            if not 0 <= c < self.q:
                raise ScheduleValidationError(
                    f"edge {self.edge_id(eid)} has color {c} outside palette"
                )
            for x in (u,) if u == v else (u, v):
                at_x = fresh.setdefault(x, {})
                at_x[c] = at_x.get(c, 0) + (2 if u == v else 1)
        for v, per_color in fresh.items():
            for c, n in per_color.items():
                if n > self.cap[v]:
                    raise ScheduleValidationError(
                        f"node {self.node_label(v)!r} has {n} edges of color {c} "
                        f"but c_v={self.cap[v]}"
                    )
                if n != self.count(v, c):
                    raise ScheduleValidationError(
                        f"count drift at ({self.node_label(v)!r}, {c}): "
                        f"cached {self.count(v, c)}, real {n}"
                    )
        for v in self.node_keys:
            saturated = 0
            for c, n in fresh.get(v, {}).items():
                if n >= self.cap[v]:
                    saturated |= 1 << c
            drift = saturated ^ self.full[v]
            if drift:
                c = (drift & -drift).bit_length() - 1
                real = "saturated" if saturated >> c & 1 else "free"
                cached = "free" if real == "saturated" else "saturated"
                raise ScheduleValidationError(
                    f"mask drift at ({self.node_label(v)!r}, {c}): "
                    f"cached {cached}, real {real}"
                )

    def colors_used(self) -> int:
        return len(set(self.color.values()))


class ArrayColoringState(ColoringState[int]):
    """:class:`ColoringState` over a :class:`CompactGraph`'s dense indices.

    Node keys are node indices and edge keys are edge indices; every
    per-node table is a list.  The hooks restore the label-space
    orders: sweeps and edge lists sort by edge *id* (a component
    subgraph preserves ids but need not enumerate them ascending), and
    node scans and pair keys sort by the graph's cached repr rank —
    the same order as ``sorted(nodes, key=repr)`` whenever node reprs
    are unique (the fingerprint precondition).  ``color`` keeps the
    assignment history, so lifting it through ``edge_ids`` gives the
    dict the label-keyed state would have built.
    """

    graph: CompactGraph

    def __init__(
        self,
        graph: CompactGraph,
        capacities: Sequence[int],
        num_colors: int,
        seed: int = 0,
    ) -> None:
        counts: List[Dict[int, int]] = [{} for _ in range(graph.num_nodes)]
        edges_at: List[Dict[int, Dict[int, None]]] = [
            {} for _ in range(graph.num_nodes)
        ]
        self.graph = graph
        self.cap = list(capacities)
        self.q = num_colors
        self.color = {}
        self.counts = counts
        self.edges_at = edges_at
        self.full = [0] * graph.num_nodes
        self.node_keys = range(graph.num_nodes)
        self.uncolored = set(range(graph.num_edges))
        self._rng = random.Random(seed)

    def edge_id(self, e: int) -> EdgeId:
        return self.graph.edge_ids[e]

    def node_label(self, v: int) -> Node:
        return self.graph.nodes[v]

    def edge_order(self, edges: Iterable[int]) -> List[int]:
        return sorted(edges, key=self.graph.edge_ids.__getitem__)

    def node_order(self, nodes: Iterable[int]) -> List[int]:
        return sorted(nodes, key=self.graph.repr_rank().__getitem__)

    # The general kernel's hot entry points, bound in this class's own
    # namespace too: the benchmark's per-class probes read the class
    # ``__dict__``, and this keeps the two key spaces apart there.
    common_missing_color = ColoringState.common_missing_color
    try_color_edge = ColoringState.try_color_edge
    attempt_flip = ColoringState.attempt_flip
    add_color = ColoringState.add_color
