"""Differential engine-equivalence harness (array kernel vs reference).

Every solver that registered a CSR array kernel
(``register_solver(..., compact=...)``) keeps its object-engine
function as the **reference** (``SolverSpec.solve``).  The solve stage
only ever runs the production path,
:func:`repro.pipeline.parallel.backend_solver`, which lowers the
instance once and runs the array kernel.  The kernel claims to be
**byte-identical** to its reference — not "equally valid", the *same
bytes*: same rounds in the same order, same method label.  That claim
is what lets the reference stay the oracle for the array kernels.

This module proves the claim differentially instead of sampling it:
for every instance in the generator corpus (all families:
even-capacity, bipartite, clique, hotspot, regular, mixed
multi-component), for each of its ``decompose`` components, and for
every applicable registered solver with an array kernel, it runs
``spec.solve(target, seed, None)`` and
``backend_solver(spec, target)(seed, None)`` under multiple seeds and
requires

* identical round lists (compared element by element, order included),
* identical method labels,
* identical SHA-256 digests of the canonical schedule JSON.

Wired into ``repro-migrate check --engine``; the cross-
``PYTHONHASHSEED`` battery (:mod:`repro.checks.hashseed`) additionally
runs the comparison in fresh interpreters under different hash seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.pipeline.parallel import backend_solver
from repro.pipeline.registry import SolverSpec, get_solver, solver_names
from repro.pipeline.stages import decompose
from repro.workloads.generators import (
    bipartite_instance,
    clique_instance,
    hotspot_instance,
    multi_component_instance,
    random_instance,
    regular_instance,
)


@dataclass(frozen=True)
class EngineCase:
    """One differential comparison (or one exact-battery case)."""

    name: str
    ok: bool
    rounds: int = 0
    digest: str = ""
    detail: str = ""


@dataclass(frozen=True)
class EngineReport:
    cases: Tuple[EngineCase, ...]

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    def render(self) -> str:
        lines = []
        for case in self.cases:
            status = "ok" if case.ok else "MISMATCH"
            suffix = (
                f" ({case.detail})"
                if case.detail and not case.ok
                else f" rounds={case.rounds} sha256={case.digest[:12]}"
                if case.ok
                else ""
            )
            lines.append(f"  {case.name}: {status}{suffix}")
        return "\n".join(lines)


def schedule_digest(rounds: Sequence[Sequence[int]]) -> str:
    """SHA-256 of the exact JSON form of a schedule's rounds.

    Deliberately *not* order-normalized: the equivalence contract is
    byte-identity, so the digest must see the rounds exactly as the
    engine emitted them, within-round order included.
    """
    blob = json.dumps([list(rnd) for rnd in rounds], separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: The default differential corpus: every generator family, chosen so
#: each registered array kernel (even_optimal, bipartite_optimal,
#: general) gets exercised, on whole instances and on components.  The
#: method column is the ``plan()`` method the golden digests pin.  Kept
#: small enough to run in the CI smoke job; the factories are
#: deterministic, so the corpus is too.
DEFAULT_CORPUS: Tuple[Tuple[str, str, Callable[[], MigrationInstance]], ...] = (
    (
        "random/mixed-caps",
        "auto",
        lambda: random_instance(14, 80, capacities={1: 0.3, 2: 0.4, 4: 0.3}, seed=11),
    ),
    (
        "random/all-even",
        "auto",
        lambda: random_instance(12, 70, uniform_capacity=2, seed=5),
    ),
    (
        "random/general-forced",
        "general",
        lambda: random_instance(10, 60, capacities={1: 0.5, 3: 0.5}, seed=7),
    ),
    (
        "bipartite/disk-addition",
        "auto",
        lambda: bipartite_instance(6, 4, 50, old_capacity=1, new_capacity=3, seed=3),
    ),
    (
        "clique/figure-2",
        "auto",
        lambda: clique_instance(5, 4, capacity=1),
    ),
    (
        "hotspot/hub-drain",
        "auto",
        lambda: hotspot_instance(12, 2, 60, seed=9),
    ),
    (
        "regular/config-model",
        "auto",
        lambda: regular_instance(16, 6, capacity=2, seed=13),
    ),
    (
        "multi-component/mixed-parity",
        "auto",
        lambda: multi_component_instance(3, disks_per_component=6,
                                         items_per_component=25, seed=17),
    ),
)


def kernel_specs() -> Tuple[SolverSpec, ...]:
    """Every registered solver with an array kernel, in registration order."""
    specs = (get_solver(name) for name in solver_names())
    return tuple(spec for spec in specs if spec.solve_compact is not None)


def engine_targets(
    instance: MigrationInstance,
) -> List[Tuple[str, MigrationInstance]]:
    """``instance`` and each of its ``decompose`` components, labelled."""
    return [("instance", instance)] + [
        (f"component {comp.index}", comp.instance) for comp in decompose(instance)
    ]


def compare_kernels(
    name: str,
    targets: Sequence[Tuple[str, MigrationInstance]],
    spec: SolverSpec,
    seed: int = 0,
) -> EngineCase:
    """Compare ``spec``'s reference kernel with its production path.

    Runs both on every labelled target (see :func:`engine_targets`)
    that ``spec`` applies to.  The case reports the largest round
    count seen and one digest over every compared schedule, in
    comparison order.
    """
    problems: List[str] = []
    digests: List[str] = []
    rounds = 0
    for label, target in targets:
        if not spec.applicable(target):
            continue
        ref = spec.solve(target, seed, None)
        prod = backend_solver(spec, target)(seed, None)
        problems.extend(f"{label}: {p}" for p in _diff_schedules(ref, prod))
        digests.append(schedule_digest(prod.rounds))
        rounds = max(rounds, prod.num_rounds)
    if problems:
        return EngineCase(name=name, ok=False, detail="; ".join(problems))
    digest = hashlib.sha256("".join(digests).encode("utf-8")).hexdigest()
    return EngineCase(name=name, ok=True, rounds=rounds, digest=digest)


def _diff_schedules(ref: MigrationSchedule, prod: MigrationSchedule) -> List[str]:
    problems: List[str] = []
    if ref.rounds != prod.rounds:
        problems.append(
            f"rounds differ: reference={len(ref.rounds)} array={len(prod.rounds)}, "
            f"first divergence at {_first_round_divergence(ref.rounds, prod.rounds)}"
        )
    if ref.method != prod.method:
        problems.append(
            f"method labels differ: {ref.method!r} vs {prod.method!r}"
        )
    ref_digest = schedule_digest(ref.rounds)
    prod_digest = schedule_digest(prod.rounds)
    if ref_digest != prod_digest:
        problems.append(f"schedule digests differ: {ref_digest} vs {prod_digest}")
    return problems


def _first_round_divergence(
    a: List[List[int]], b: List[List[int]]
) -> str:
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            return f"round {i}"
    return "round count"


# ----------------------------------------------------------------------
# exact-vs-heuristic battery
# ----------------------------------------------------------------------

#: Small-instance corpus for the exact battery — every family again,
#: sized inside the exact solver's caps (≤ 16 items, ≤ 14 disks) so
#: each case has a *provable* optimum to compare the heuristic against.
EXACT_CORPUS: Tuple[Tuple[str, Callable[[], MigrationInstance]], ...] = (
    (
        "random/mixed-caps",
        lambda: random_instance(6, 14, capacities={1: 0.4, 2: 0.4, 3: 0.2}, seed=11),
    ),
    (
        "random/unit-caps",
        lambda: random_instance(7, 15, uniform_capacity=1, seed=5),
    ),
    (
        "random/all-even",
        lambda: random_instance(6, 16, uniform_capacity=2, seed=23),
    ),
    (
        "bipartite/disk-addition",
        lambda: bipartite_instance(4, 3, 14, old_capacity=1, new_capacity=2, seed=3),
    ),
    (
        "clique/figure-2",
        lambda: clique_instance(4, 2, capacity=1),
    ),
    (
        "hotspot/hub-drain",
        lambda: hotspot_instance(7, 2, 15, seed=9),
    ),
    (
        "regular/config-model",
        lambda: regular_instance(8, 4, capacity=2, seed=13),
    ),
)


def compare_exact_vs_heuristic(name: str, instance: MigrationInstance) -> EngineCase:
    """Sandwich the Theorem 5.1 heuristic between proof obligations.

    The exact branch-and-bound must satisfy ``verified LB ≤ exact ≤
    heuristic`` — the left inequality against the independently
    re-verified lower-bound certificate, the right against the general
    solver it uses as incumbent — and its optimality certificate must
    survive :func:`repro.checks.certify.verify_optimality_certificate`.
    The reported digest covers both schedules, so a regression in
    either solver's bytes shows up even when the round counts agree.
    """
    from repro.checks.certify import (
        make_certificate,
        verify_certificate,
        verify_optimality_certificate,
    )
    from repro.core.general import general_schedule
    from repro.exact.search import solve_exact

    res = solve_exact(instance)
    heuristic = general_schedule(instance, seed=0)
    lb = verify_certificate(instance, make_certificate(instance))
    problems: List[str] = []
    if res.value > heuristic.num_rounds:
        problems.append(
            f"exact {res.value} rounds exceeds heuristic {heuristic.num_rounds}"
        )
    if res.value < lb:
        problems.append(f"exact {res.value} rounds below verified LB {lb}")
    try:
        verify_optimality_certificate(
            instance, res.objective, res.schedule, res.certificate
        )
    except Exception as exc:  # CertificationError — report, don't abort the battery
        problems.append(f"optimality certificate rejected: {exc}")
    if problems:
        return EngineCase(name=name, ok=False, detail="; ".join(problems))
    digest = hashlib.sha256(
        (
            schedule_digest(res.schedule.rounds)
            + schedule_digest(heuristic.rounds)
        ).encode("utf-8")
    ).hexdigest()
    return EngineCase(name=name, ok=True, rounds=res.value, digest=digest)


def check_exact_vs_heuristic(
    corpus: Optional[Sequence[Tuple[str, Callable[[], MigrationInstance]]]] = None,
) -> EngineReport:
    """Run the exact-vs-heuristic battery over the small corpus."""
    cases = [
        compare_exact_vs_heuristic(f"exact-vs-heuristic/{name}", factory())
        for name, factory in (corpus or EXACT_CORPUS)
    ]
    return EngineReport(cases=tuple(cases))


def check_engine_equivalence(
    corpus: Optional[
        Sequence[Tuple[str, str, Callable[[], MigrationInstance]]]
    ] = None,
    seeds: Sequence[int] = (0, 1),
) -> EngineReport:
    """Run the full differential battery over the corpus.

    Every array kernel that applies to a corpus entry (or to one of its
    components) is compared under every seed (seeds matter for the
    randomized general solver: the kernels must agree on every seed's
    schedule, not just one lucky draw).
    """
    cases: List[EngineCase] = []
    for name, _method, factory in corpus or DEFAULT_CORPUS:
        targets = engine_targets(factory())
        for spec in kernel_specs():
            if not any(spec.applicable(t) for _label, t in targets):
                continue
            for seed in seeds:
                cases.append(
                    compare_kernels(
                        f"{name}/{spec.name}/seed{seed}", targets, spec, seed=seed
                    )
                )
    return EngineReport(cases=tuple(cases))
