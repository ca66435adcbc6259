"""Parallel component solving via ``ProcessPoolExecutor``.

Components are node-disjoint sub-instances, so they can be solved in
any order — including simultaneously — without coordination.  What
must *not* depend on scheduling luck is the output, so the backend is
built for determinism:

* every job carries its own pre-derived seed
  (:func:`repro.pipeline.canonical.derive_component_seed`), so worker
  processes never consult shared or ambient randomness;
* results return as canonical pair tokens, the exact representation
  the serial path round-trips through, so a pooled schedule is
  byte-identical to a serial one; a general solve's
  :class:`~repro.core.general.GeneralSolverStats` rides along, so
  pooled solves report the same diagnostics as serial ones;
* ``ProcessPoolExecutor.map`` preserves submission order, so the
  caller reassembles results by component index, never by completion
  order.

Workers re-import the solver registry (the job function is
module-level, as ``spawn``-based platforms require) and pay instance
pickling costs, so parallelism only wins when per-component solve time
dominates — the planner's ``parallel="auto"`` mode applies a
work-size threshold before spinning up a pool.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.core.general import GeneralSolverStats
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import lower_instance
from repro.pipeline.canonical import (
    TokenRounds,
    canonicalize_rounds,
    derive_restart_seed,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.pipeline.registry import SolverSpec

#: One unit of work: (component instance, method name, seed).
SolveJob = Tuple[MigrationInstance, str, int]

#: One result: (canonical rounds, method label the solver reported,
#: diagnostics of a general solve's first attempt or ``None``).
SolveOutcome = Tuple[TokenRounds, str, Optional[GeneralSolverStats]]

#: Extra seeds tried when a randomized solver lands above a component's
#: lower bound.  Affordable precisely *because* of decomposition: a
#: restart re-solves one component, not the whole instance — the
#: monolithic path cannot buy round-count luck this cheaply.
GENERAL_SOLVE_RESTARTS = 5


def backend_solver(
    spec: "SolverSpec",
    instance: MigrationInstance,
) -> Callable[[int, Optional[GeneralSolverStats]], MigrationSchedule]:
    """Bind ``spec`` to ``instance``: the production solve path.

    The component is lowered onto the CSR array representation exactly
    once — restart attempts reuse the lowered arrays — and the returned
    callable, with the ``(seed, stats)`` solver signature, runs
    ``spec.solve`` on them.
    """
    lowered = lower_instance(instance)

    def solve(seed: int, stats: Optional[GeneralSolverStats]) -> MigrationSchedule:
        return spec.solve(lowered, seed, stats)

    return solve


def solver_stats(spec: "SolverSpec") -> Optional[GeneralSolverStats]:
    """A fresh diagnostics record for a general solve, else ``None``.

    Randomized non-optimal solvers (the general algorithm) fill a
    :class:`GeneralSolverStats`; every other solver ignores it.
    """
    return GeneralSolverStats() if spec.randomized and not spec.optimal else None


def solve_job(job: SolveJob) -> SolveOutcome:
    """Solve one component and return its canonical schedule.

    Module-level (not a closure) so it pickles under every
    multiprocessing start method.  Also used verbatim by the serial
    path: one code path, two execution backends.

    Randomized non-optimal solvers (the general algorithm) whose first
    schedule exceeds the component's lower bound are restarted up to
    :data:`GENERAL_SOLVE_RESTARTS` times with deterministically derived
    seeds, keeping the shortest schedule.  The returned stats describe
    the first attempt; restarts run without diagnostics.
    """
    instance, method, seed = job
    from repro.pipeline.registry import get_solver

    spec = get_solver(method)
    solve = backend_solver(spec, instance)
    stats = solver_stats(spec)
    schedule = solve(seed, stats)
    schedule.validate(instance)
    if stats is not None:
        for attempt in range(1, GENERAL_SOLVE_RESTARTS + 1):
            if schedule.num_rounds <= stats.lower_bound:
                break
            alt = solve(derive_restart_seed(seed, attempt), None)
            if alt.num_rounds < schedule.num_rounds:
                alt.validate(instance)
                schedule = alt
    return canonicalize_rounds(instance, schedule.rounds), schedule.method, stats


def solve_jobs(
    jobs: Sequence[SolveJob],
    max_workers: Optional[int] = None,
) -> List[SolveOutcome]:
    """Solve every job, in a process pool when it can possibly help.

    Args:
        jobs: the components to solve; results come back in the same
            order.
        max_workers: pool width; ``None`` lets the executor pick.
            A single job (or ``max_workers=1``) short-circuits to the
            serial path — no pool, no pickling.
    """
    if len(jobs) <= 1 or max_workers == 1:
        return [solve_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(solve_job, jobs))
