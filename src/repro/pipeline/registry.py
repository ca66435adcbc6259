"""The solver registry: the *select* stage's catalog.

Every scheduling algorithm the pipeline can dispatch to is described by
a :class:`SolverSpec` registered through :func:`register_solver`:

* ``applicable(instance)`` — a cheap predicate deciding whether the
  solver may run on an instance (e.g. the Section-IV optimal scheduler
  requires every ``c_v`` even);
* ``cost_hint`` — selection priority among applicable *auto* solvers
  (lower wins); optimal special-case solvers carry low hints so an
  even-capacity or bipartite **component** is promoted to its optimal
  algorithm even inside a globally mixed instance;
* ``auto`` — whether the solver participates in automatic selection
  (baselines are registered but only reachable by explicit
  ``method=`` so comparisons keep working).

The built-in catalog prefers even-optimal before bipartite before
general via the cost hints, so single-solver instances keep their
historical method names while mixed instances gain per-component
promotion.  :data:`METHODS` lists every value ``repro.plan`` accepts
as ``method=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.baselines import (
    even_rounding_schedule,
    greedy_schedule,
    homogeneous_schedule,
    saia_schedule,
)
from repro.core.even_optimal import even_optimal_schedule, even_optimal_schedule_compact
from repro.core.general import (
    GeneralSolverStats,
    general_schedule,
    general_schedule_compact,
)
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.core.special_cases import (
    bipartite_optimal_schedule,
    bipartite_optimal_schedule_compact,
    is_bipartite_instance,
)
from repro.exact.search import (
    EXACT_SEARCH_EDGE_LIMIT,
    EXACT_SEARCH_NODE_LIMIT,
    exact_bb_schedule,
)
from repro.graphs.array_backend import CompactInstance

#: ``solve(instance, seed, stats)`` — the uniform solver signature.
#: Solvers without randomness or diagnostics ignore the extra args.
SolveFn = Callable[
    [MigrationInstance, int, Optional[GeneralSolverStats]], MigrationSchedule
]

#: ``solve_compact(lowered, seed, stats)`` — the CSR array kernel the
#: solve stage runs.  Must produce a schedule byte-identical to
#: ``solve`` (the reference object kernel) on the source instance; the
#: differential harness (`repro.checks.engine`) enforces this across
#: the generator corpus.
SolveCompactFn = Callable[
    [CompactInstance, int, Optional[GeneralSolverStats]], MigrationSchedule
]

ApplicableFn = Callable[[MigrationInstance], bool]

@dataclass(frozen=True)
class SolverSpec:
    """One registered scheduling algorithm."""

    name: str
    solve: SolveFn
    applicable: ApplicableFn
    cost_hint: int
    optimal: bool
    auto: bool
    randomized: bool  # output depends on the seed → restarts can help
    order: int  # registration order; breaks cost_hint ties deterministically
    #: CSR array kernel, byte-identical to ``solve``; when present the
    #: solve stage runs it, and ``solve`` is the differential reference.
    #: None means the solve stage runs ``solve``.
    solve_compact: Optional[SolveCompactFn] = None
    #: objective kinds this solver can optimize (``Objective.kind``
    #: tags).  Every legacy solver optimizes makespan only; the exact
    #: branch-and-bound also handles the round-indexed objectives.
    objectives: Tuple[str, ...] = ("makespan",)

    def supports_objective(self, kind: str) -> bool:
        return kind in self.objectives


_REGISTRY: Dict[str, SolverSpec] = {}


def register_solver(
    name: str,
    *,
    applicable: Optional[ApplicableFn] = None,
    cost_hint: int = 1000,
    optimal: bool = False,
    auto: bool = False,
    randomized: bool = False,
    compact: Optional[SolveCompactFn] = None,
    objectives: Tuple[str, ...] = ("makespan",),
) -> Callable[[SolveFn], SolveFn]:
    """Register a solver under ``name``; use as a decorator.

    Args:
        name: the public method name (``repro.plan``'s ``method=``).
        applicable: predicate gating the solver (default: always).
        cost_hint: auto-selection priority — lower wins among
            applicable auto solvers.
        optimal: the solver is exactly optimal on its applicable class.
        auto: participates in automatic selection.
        randomized: output depends on the seed, so the pipeline's solve
            stage may restart the solver with derived seeds when a
            component comes out above its lower bound.
        compact: optional CSR array kernel, run by the solve stage in
            place of the decorated function; must be byte-identical to
            it (same rounds, same method label).
        objectives: ``Objective.kind`` tags the solver can optimize
            (default: makespan only).

    Raises:
        ValueError: on duplicate registration.
    """
    if name in _REGISTRY:
        raise ValueError(f"solver {name!r} is already registered")

    def decorate(fn: SolveFn) -> SolveFn:
        _REGISTRY[name] = SolverSpec(
            name=name,
            solve=fn,
            applicable=applicable if applicable is not None else (lambda _inst: True),
            cost_hint=cost_hint,
            optimal=optimal,
            auto=auto,
            randomized=randomized,
            order=len(_REGISTRY),
            solve_compact=compact,
            objectives=objectives,
        )
        return fn

    return decorate


def solver_names() -> Tuple[str, ...]:
    """All registered method names, in registration order."""
    return tuple(_REGISTRY)


def get_solver(name: str) -> SolverSpec:
    """Look up a solver by method name.

    Raises:
        ValueError: for an unknown method (lists the catalog).
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        expected = ("auto",) + solver_names()
        raise ValueError(f"unknown method {name!r}; expected one of {expected}")
    return spec


def select_solver(
    instance: MigrationInstance, objective_kind: str = "makespan"
) -> SolverSpec:
    """The *select* stage: cheapest applicable auto solver.

    Args:
        instance: the component to schedule.
        objective_kind: ``Objective.kind`` the caller optimizes; only
            solvers declaring support for it are considered.

    Raises:
        ValueError: if no auto solver applies (can only happen for a
            non-makespan objective on an instance above the exact
            solver's caps — the general solver always applies for
            makespan).
    """
    candidates = [
        spec
        for spec in _REGISTRY.values()
        if spec.auto
        and spec.supports_objective(objective_kind)
        and spec.applicable(instance)
    ]
    if not candidates:
        raise ValueError(
            f"no applicable auto solver for {instance!r} "
            f"under objective {objective_kind!r}"
        )
    return min(candidates, key=lambda spec: (spec.cost_hint, spec.order))


# ----------------------------------------------------------------------
# built-in catalog (registration order == METHODS order)
# ----------------------------------------------------------------------

def _compact_even_optimal(
    ci: CompactInstance,
    seed: int,
    stats: Optional[GeneralSolverStats],
) -> MigrationSchedule:
    return even_optimal_schedule_compact(ci)


def _compact_bipartite_optimal(
    ci: CompactInstance,
    seed: int,
    stats: Optional[GeneralSolverStats],
) -> MigrationSchedule:
    return bipartite_optimal_schedule_compact(ci)


def _compact_general(
    ci: CompactInstance,
    seed: int,
    stats: Optional[GeneralSolverStats],
) -> MigrationSchedule:
    return general_schedule_compact(ci, seed=seed, stats=stats)


@register_solver(
    "even_optimal",
    applicable=lambda inst: inst.all_even(),
    cost_hint=10,
    optimal=True,
    auto=True,
    compact=_compact_even_optimal,
)
def _solve_even_optimal(
    instance: MigrationInstance,
    seed: int,
    stats: Optional[GeneralSolverStats],
) -> MigrationSchedule:
    return even_optimal_schedule(instance)


@register_solver(
    "bipartite_optimal",
    applicable=is_bipartite_instance,
    cost_hint=20,
    optimal=True,
    auto=True,
    compact=_compact_bipartite_optimal,
)
def _solve_bipartite_optimal(
    instance: MigrationInstance,
    seed: int,
    stats: Optional[GeneralSolverStats],
) -> MigrationSchedule:
    return bipartite_optimal_schedule(instance)


@register_solver(
    "general",
    cost_hint=100,
    auto=True,
    randomized=True,
    compact=_compact_general,
)
def _solve_general(
    instance: MigrationInstance,
    seed: int,
    stats: Optional[GeneralSolverStats],
) -> MigrationSchedule:
    return general_schedule(instance, seed=seed, stats=stats)


@register_solver("saia", cost_hint=400)
def _solve_saia(
    instance: MigrationInstance,
    seed: int,
    stats: Optional[GeneralSolverStats],
) -> MigrationSchedule:
    return saia_schedule(instance)


@register_solver("homogeneous", cost_hint=500)
def _solve_homogeneous(
    instance: MigrationInstance,
    seed: int,
    stats: Optional[GeneralSolverStats],
) -> MigrationSchedule:
    return homogeneous_schedule(instance)


@register_solver("greedy", cost_hint=600)
def _solve_greedy(
    instance: MigrationInstance,
    seed: int,
    stats: Optional[GeneralSolverStats],
) -> MigrationSchedule:
    return greedy_schedule(instance)


@register_solver("even_rounding", cost_hint=700)
def _solve_even_rounding(
    instance: MigrationInstance,
    seed: int,
    stats: Optional[GeneralSolverStats],
) -> MigrationSchedule:
    return even_rounding_schedule(instance)


def _exact_bb_applicable(instance: MigrationInstance) -> bool:
    return (
        instance.num_items <= EXACT_SEARCH_EDGE_LIMIT
        and instance.num_disks <= EXACT_SEARCH_NODE_LIMIT
    )


@register_solver(
    "exact_bb",
    applicable=_exact_bb_applicable,
    cost_hint=30,
    optimal=True,
    auto=True,
    objectives=("makespan", "bounded_color", "group_completion"),
)
def _solve_exact_bb(
    instance: MigrationInstance,
    seed: int,
    stats: Optional[GeneralSolverStats],
) -> MigrationSchedule:
    return exact_bb_schedule(instance, seed, stats)


#: All accepted ``method=`` values: ``"auto"`` plus every registered
#: solver, in registration order.
METHODS = ("auto",) + solver_names()
