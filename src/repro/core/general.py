"""The (1 + o(1))-approximation for arbitrary constraints (Section V).

The driver follows the paper's two-phase structure:

**Phase 1** maintains a partial capacitated coloring with ``q`` colors
(``q`` starts at the certified lower bound — at least as ambitious as
the paper's ``(1+ε)Δ' + 1``).  It sweeps the uncolored edges applying
the orbit moves: balancing-orbit and color-orbit progress are realized
by :meth:`ColoringState.try_color_edge` (common missing color, else
ab-path flips — Lemmas 5.1/5.2), which also eliminates *bad* (parallel
uncolored) edges.  When a sweep makes no progress, the uncolored
components are classified (:mod:`repro.core.orbits`): if the residue is
already a simple graph of small components — a collection of *hard
orbits* (Corollary 5.1 bounds their size by ``1 + 1/ε ≈ √OPT``) —
Phase 2 takes over; otherwise the stall is treated as a witness
(Definition 5.7, Lemma 5.4) and the palette grows by one color, which
Corollary 5.2 keeps within ``OPT + 2/ε``.

**Phase 2** (Section V-C3) colors the residual simple graph ``G₀``:
every node ``v`` splits into ``c_v`` copies, its residual edges are
spread round-robin (so each copy has degree ``<= ceil(d_v(G₀)/c_v)``),
Misra–Gries (Vizing ``Δ+1``) colors the split graph with fresh colors,
and contraction maps copy-colors back — at most ``c_v`` same-colored
edges can meet at ``v``, one per copy, so constraints hold (Lemma 5.8).

The returned schedule is always validated; the number of colors is the
quantity the theorem bounds (``OPT + O(√OPT)``), and the benchmark
harness measures it against ``LB + 2⌈√LB⌉`` on every run.

One driver serves both key spaces of :mod:`repro.core.recolor`:
:func:`general_schedule` (the reference) runs Phase 1 on a label-keyed
:class:`ColoringState`, :func:`general_schedule_compact` (the
production kernel) on an index-keyed :class:`ArrayColoringState` over
the lowered CSR graph.  They share one body and differ only in how
they build the state and lift its coloring back to edge ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.lower_bounds import lower_bound
from repro.core.orbits import (
    bad_edge_groups,
    is_delta_witness,
    is_gamma_witness,
    uncolored_components,
)
from repro.core.problem import MigrationInstance
from repro.core.recolor import ArrayColoringState, ColoringState, N
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import CompactInstance, lift_coloring
from repro.graphs.coloring.vizing import vizing_coloring
from repro.graphs.multigraph import EdgeId, Multigraph, split_by_capacity


@dataclass
class GeneralSolverStats:
    """Diagnostics describing one run of the general algorithm."""

    lower_bound: int = 0
    initial_colors: int = 0
    palette_growths: int = 0
    witnessed_growths: int = 0
    phase1_colors: int = 0
    phase2_colors: int = 0
    phase2_edges: int = 0
    sweeps: int = 0
    flips_attempted: int = 0

    @property
    def total_colors(self) -> int:
        return self.phase1_colors + self.phase2_colors

    def theorem_budget(self) -> int:
        """``LB + 2·ceil(sqrt(LB)) + 2`` — the Theorem 5.1 yardstick."""
        return self.lower_bound + 2 * math.isqrt(max(0, self.lower_bound)) + 2


def general_schedule(
    instance: MigrationInstance,
    seed: int = 0,
    stats: Optional[GeneralSolverStats] = None,
) -> MigrationSchedule:
    """Schedule an arbitrary-constraint instance (Theorem 5.1).

    The reference entry point: Phase 1 runs on a label-keyed
    :class:`ColoringState` over ``instance.graph``.

    Args:
        instance: the migration instance.
        seed: RNG seed for sweep orders and flip tie-breaking.
        stats: optional mutable stats object filled in during the run.

    Returns:
        A validated :class:`MigrationSchedule`.
    """
    return _general(
        instance,
        lambda q: ColoringState(instance.graph, instance.capacities, q, seed=seed),
        dict,
        stats,
    )


def general_schedule_compact(
    ci: CompactInstance,
    seed: int = 0,
    stats: Optional[GeneralSolverStats] = None,
) -> MigrationSchedule:
    """:func:`general_schedule` on a lowered instance (byte-identical).

    The production kernel: Phase 1 runs the same engine on an
    index-keyed :class:`ArrayColoringState` over ``ci.graph``, whose
    ordering hooks reproduce the label-keyed sweep, orbit and flip
    orders, so the lifted coloring — assignment order included — and
    the stats equal :func:`general_schedule`'s.
    """
    return _general(
        ci.source,
        lambda q: ArrayColoringState(ci.graph, ci.capacities, q, seed=seed),
        lambda color: lift_coloring(ci.graph, color),
        stats,
    )


def _general(
    instance: MigrationInstance,
    new_state: Callable[[int], ColoringState[N]],
    lift: Callable[[Dict[int, int]], Dict[EdgeId, int]],
    stats: Optional[GeneralSolverStats],
) -> MigrationSchedule:
    """Both entry points' body.

    ``new_state(q)`` builds the Phase 1 state over ``q`` colors and
    ``lift`` maps its edge-keyed coloring to edge ids, keeping the
    assignment order so ``from_coloring`` fills rounds alike.

    The cold paths — the lower bound, the Phase 2 residual Vizing pass
    (a few dozen edges by Corollary 5.1) and the final validation — run
    on ``instance`` in either key space.
    """
    stats = stats if stats is not None else GeneralSolverStats()
    if instance.num_items == 0:
        return MigrationSchedule([], method="general")

    lb = lower_bound(instance)
    stats.lower_bound = lb
    epsilon = 1.0 / math.sqrt(lb) if lb > 0 else 1.0
    q0 = max(lb, 1)
    stats.initial_colors = q0

    state = new_state(q0)
    residual_ids = _phase1(state, instance.delta_prime(), epsilon, stats)
    stats.phase1_colors = state.q

    coloring = lift(state.color)
    if residual_ids is not None:
        residual = instance.graph.edge_subgraph(residual_ids)
        phase2 = _phase2_color_residual(instance, residual)
        stats.phase2_edges = residual.num_edges
        stats.phase2_colors = (max(phase2.values()) + 1) if phase2 else 0
        for eid, c in phase2.items():
            coloring[eid] = state.q + c

    schedule = MigrationSchedule.from_coloring(coloring, method="general")
    schedule.validate(instance)
    return schedule


# ----------------------------------------------------------------------
# Phase 1
# ----------------------------------------------------------------------

def _phase1(
    state: ColoringState[N],
    delta_prime: int,
    epsilon: float,
    stats: GeneralSolverStats,
) -> Optional[List[EdgeId]]:
    """Color edges until the residue is a small simple graph (or empty).

    Returns the ascending edge ids of the residual graph ``G₀`` for
    Phase 2, or None if Phase 1 colored everything.
    """
    # Hard orbits have at most (q+2)/(q-2Δ'') ≈ 1 + 1/ε nodes
    # (Lemma 5.7 / Corollary 5.1); allow slack of one node.
    component_cap = max(4, math.ceil(2 + 1.0 / epsilon))
    # Safety net: with 2Δ' - 1 colors even first-fit cannot stall, so
    # palette growth is finite regardless of flip-search luck.
    hard_palette_cap = max(2 * delta_prime - 1, state.q)

    order = state.edge_order(state.uncolored)
    while state.uncolored:
        stats.sweeps += 1
        progress = False
        for eid in list(order):
            if eid not in state.uncolored:
                continue
            stats.flips_attempted += 1
            if state.try_color_edge(eid):
                progress = True
        order = state.edge_order(state.uncolored)
        if not state.uncolored:
            return None
        if progress:
            continue

        # Stalled sweep: classify the uncolored components.
        reports = uncolored_components(state)
        bad = bad_edge_groups(state)
        all_hard = all(r.kind == "hard" for r in reports)
        small = all(len(r.nodes) <= component_cap for r in reports)
        if all_hard and not bad and small:
            # A collection of hard orbits: ship to Phase 2.  Sorted so
            # the residual graph's edge enumeration order (which feeds
            # Phase 2's round-robin node splitting) is a function of
            # the uncolored id *set*, not of set-iteration order.
            return [state.edge_id(e) for e in order]

        # Otherwise the stall plays the role of a witness: grow the
        # palette (Lemma 5.4 step 3b).  Record whether a formal
        # witness is actually present, for the diagnostics.
        if any(is_delta_witness(state, r) or is_gamma_witness(state, r) for r in reports):
            stats.witnessed_growths += 1
        state.add_color()
        stats.palette_growths += 1
        if state.q > hard_palette_cap:
            # Unreachable in theory (first-fit succeeds below the cap);
            # loud guard instead of a silent spin.
            raise AssertionError(
                f"palette grew past the 2Δ'-1 safety cap ({hard_palette_cap})"
            )
    return None


# ----------------------------------------------------------------------
# Phase 2
# ----------------------------------------------------------------------

def _phase2_color_residual(
    instance: MigrationInstance, residual: Multigraph
) -> Dict[EdgeId, int]:
    """Color the simple residual graph via node splitting + Vizing.

    Returns colors in a fresh palette ``0..Δ(split)`` which the caller
    offsets above Phase 1's palette.
    """
    split, split_eid_of = split_by_capacity(residual, instance.capacity)
    split_coloring = vizing_coloring(split)
    return {eid: split_coloring[seid] for eid, seid in split_eid_of.items()}
