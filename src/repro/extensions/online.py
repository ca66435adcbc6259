"""Online migration: move batches arrive while earlier ones still run.

Aqueduct (Lu, Alvarez & Wilkes, FAST'02 — cited as [12]) runs
migrations *online*, concurrently with new reconfiguration decisions.
This module simulates that regime on the paper's round model.  The
canonical input is a **delta stream** — one
:class:`repro.core.delta.InstanceDelta` per round boundary, the same
vocabulary :func:`repro.plan_delta` and :mod:`repro.workloads.replay`
speak: ``add_moves`` are new demands, ``remove_moves`` cancel pending
demands, ``retarget_moves`` redirect them, and ``capacity_changes``
re-provision disks mid-run.

Policies:

* ``"replan"`` — every round, rebuild a migration instance from all
  pending moves and run the paper's scheduler; execute its first
  round.  Adapts instantly, costs a plan per round; accepts every
  delta kind.
* ``"fifo"`` — plan each batch once on arrival and drain batches in
  order (no interleaving across batches).  Cheap, but a large early
  batch convoys everything behind it; only arrival-only streams make
  sense here (a cancel or retarget would invalidate the queued plans),
  so anything else is rejected.

:class:`OnlineInstance` — the ``arrivals`` mapping-plus-capacities
bundle of the extension surface — survives as a thin adapter over the
delta stream (:meth:`OnlineInstance.deltas` /
:meth:`OnlineInstance.from_deltas`); :func:`validate_online` checks a
finished run against it exactly as before.  A bare round -> batch
mapping is lifted with :func:`arrivals_to_deltas` first.

:func:`run_online` reports makespan and per-item response times
(completion round − arrival round); ``bench_online`` compares the
policies under bursty arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.delta import DeltaError, InstanceDelta
from repro.core.errors import ScheduleValidationError
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph, Node
from repro.pipeline.planner import plan

Move = Tuple[Node, Node]
POLICIES = ("replan", "fifo")

#: Everything :func:`run_online` accepts as its workload.
OnlineSource = Union[
    "OnlineInstance",
    Sequence[InstanceDelta],
    Mapping[int, InstanceDelta],
]


def _default_planner(instance: MigrationInstance) -> object:
    """The canonical planner, shaped for the ``planner=`` callback."""
    return plan(instance).schedule


def arrivals_to_deltas(
    arrivals: Mapping[int, Sequence[Move]]
) -> Dict[int, InstanceDelta]:
    """Lift a round -> batch mapping into an arrival-only delta stream."""
    return {
        round_no: InstanceDelta(add_moves=tuple(batch))
        for round_no, batch in arrivals.items()
        if batch
    }


@dataclass(frozen=True)
class OnlineInstance:
    """An online workload: arrival batches plus per-disk constraints.

    Bundles the two mappings :func:`run_online` consumes so the
    extension surface has an instance object to validate against,
    mirroring :class:`~repro.core.problem.MigrationInstance` for the
    offline extensions.  It is a thin adapter over the canonical
    delta-stream form: :meth:`deltas` lifts the arrivals into
    arrival-only :class:`InstanceDelta` values, and
    :meth:`from_deltas` projects an arrival-only stream back.
    """

    arrivals: Mapping[int, Sequence[Move]]
    capacities: Mapping[Node, int]

    def deltas(self) -> Dict[int, InstanceDelta]:
        """The arrival batches as an arrival-only delta stream."""
        return arrivals_to_deltas(self.arrivals)

    @classmethod
    def from_deltas(
        cls,
        deltas: Union[Sequence[InstanceDelta], Mapping[int, InstanceDelta]],
        capacities: Mapping[Node, int],
    ) -> "OnlineInstance":
        """Project an arrival-only delta stream into an instance.

        Raises:
            DeltaError: if any delta carries removes, retargets or
                capacity changes — those have no arrivals-mapping form.
        """
        stream = _as_delta_stream(deltas)
        arrivals: Dict[int, Tuple[Move, ...]] = {}
        for round_no in sorted(stream):
            delta = stream[round_no]
            if (
                delta.remove_moves
                or delta.retarget_moves
                or delta.capacity_changes
            ):
                raise DeltaError(
                    "OnlineInstance only represents arrival-only streams; "
                    f"the delta at round {round_no} edits pending moves"
                )
            if delta.add_moves:
                arrivals[round_no] = delta.add_moves
        return cls(arrivals=arrivals, capacities=capacities)


@dataclass
class OnlineReport:
    """Outcome of an online simulation.

    Satisfies the :class:`repro.extensions.ExtensionResult` protocol:
    ``rounds`` records the executed transfer rounds (lists of global
    move indices, in execution order) and ``num_rounds`` counts them.
    """

    makespan: int = 0
    # move index (global submission order) -> (arrival, completion) rounds.
    timeline: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    plans_computed: int = 0
    #: executed rounds: global move indices, in execution order.
    rounds: List[List[int]] = field(default_factory=list)
    #: global move index -> the (src, dst) move, for re-validation.
    moves: Dict[int, Move] = field(default_factory=dict)
    #: moves cancelled by a ``remove_moves`` entry before executing.
    cancelled: List[int] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        """Rounds that executed at least one transfer."""
        return len(self.rounds)

    @property
    def response_times(self) -> List[int]:
        return [done - arrived for arrived, done in self.timeline.values()]

    @property
    def mean_response(self) -> float:
        times = self.response_times
        return sum(times) / len(times) if times else 0.0

    @property
    def max_response(self) -> int:
        return max(self.response_times, default=0)


def _as_delta_stream(
    source: Union[Sequence[InstanceDelta], Mapping[int, InstanceDelta]]
) -> Dict[int, InstanceDelta]:
    """Normalize a sequence (index = round) or mapping of deltas."""
    if isinstance(source, Mapping):
        stream = dict(source)
    else:
        stream = dict(enumerate(source))
    for round_no, delta in stream.items():
        if not isinstance(delta, InstanceDelta):
            raise TypeError(
                f"round {round_no}: expected an InstanceDelta, got "
                f"{type(delta).__name__}"
            )
    return {r: d for r, d in stream.items() if not d.is_empty}


def _normalize_source(
    source: OnlineSource, capacities: Optional[Mapping[Node, int]]
) -> Tuple[Dict[int, InstanceDelta], Dict[Node, int]]:
    """Resolve every accepted workload spelling to (deltas, capacities)."""
    if isinstance(source, OnlineInstance):
        if capacities is not None:
            raise ValueError(
                "pass capacities inside the OnlineInstance, not separately"
            )
        return source.deltas(), dict(source.capacities)
    if capacities is None:
        raise ValueError("capacities are required")
    return _as_delta_stream(source), dict(capacities)


def run_online(
    source: OnlineSource,
    capacities: Optional[Mapping[Node, int]] = None,
    policy: str = "replan",
    planner: Callable[[MigrationInstance], object] = _default_planner,
    max_rounds: int = 100_000,
) -> OnlineReport:
    """Simulate online migration under a policy.

    Args:
        source: the workload — a sequence of
            :class:`InstanceDelta` (index = round), a round -> delta
            mapping, or an :class:`OnlineInstance` (then leave
            ``capacities`` unset).
        capacities: ``c_v`` for every disk that ever appears.
        policy: ``"replan"`` or ``"fifo"`` (arrival-only streams).
        planner: scheduler used on (sub-)instances; defaults to the
            canonical :func:`repro.plan` pipeline.

    Returns:
        An :class:`OnlineReport`; per-round capacity feasibility is
        asserted during the simulation.

    Raises:
        TypeError: when the stream holds anything but
            :class:`InstanceDelta` values.
        DeltaError: when a remove or retarget names no pending move,
            or a non-arrival delta is fed to the ``fifo`` policy.
    """
    deltas, caps = _normalize_source(source, capacities)
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected {POLICIES}")
    last_arrival = max(deltas, default=0)
    report = OnlineReport()

    # Global move bookkeeping.
    pending: List[Tuple[int, Move]] = []  # (global index, move)
    next_index = 0
    arrival_round: Dict[int, int] = {}

    # FIFO state: queued (batch plans as lists of rounds of move ids).
    fifo_queue: List[List[List[int]]] = []

    def _latest_pending(move: Move) -> int:
        """Position in ``pending`` of the newest entry matching ``move``."""
        for pos in range(len(pending) - 1, -1, -1):
            if pending[pos][1] == move:
                return pos
        raise DeltaError(f"no pending move matches {move!r}")

    def admit(round_no: int) -> None:
        nonlocal next_index
        delta = deltas.get(round_no)
        if delta is None:
            return
        edits = (
            delta.remove_moves or delta.retarget_moves or delta.capacity_changes
        )
        if policy == "fifo" and edits:
            raise DeltaError(
                "the fifo policy plans each batch once on arrival, so only "
                "arrival-only delta streams are supported; use the replan "
                "policy for cancels, retargets and capacity changes"
            )
        for node, c in delta.capacity_changes:
            caps[node] = c
        for src, old, new in delta.retarget_moves:
            pos = _latest_pending((src, old))
            idx = pending[pos][0]
            pending[pos] = (idx, (src, new))
            report.moves[idx] = (src, new)
        for move in delta.remove_moves:
            pos = _latest_pending(move)
            report.cancelled.append(pending[pos][0])
            del pending[pos]
        if not delta.add_moves:
            return
        ids = []
        for move in delta.add_moves:
            pending.append((next_index, move))
            arrival_round[next_index] = round_no
            report.moves[next_index] = move
            ids.append(next_index)
            next_index += 1
        if policy == "fifo":
            fifo_queue.append(_plan_batch(ids, dict(pending), caps, planner, report))

    def _execute(round_no: int, chosen: List[int]) -> None:
        # Capacity check + mark complete.
        loads: Dict[Node, int] = {}
        by_id = dict(pending)
        for idx in chosen:
            u, v = by_id[idx]
            loads[u] = loads.get(u, 0) + 1
            loads[v] = loads.get(v, 0) + 1
        for v, n in loads.items():
            if n > caps[v]:
                raise ScheduleValidationError(
                    f"online round {round_no}: {v!r} runs {n} > c_v={caps[v]}"
                )
        done = set(chosen)
        pending[:] = [(i, m) for i, m in pending if i not in done]
        report.rounds.append(list(chosen))
        for idx in chosen:
            report.timeline[idx] = (arrival_round[idx], round_no + 1)

    round_no = 0
    while round_no <= last_arrival or pending:
        if round_no >= max_rounds:
            raise ScheduleValidationError("online simulation exceeded round cap")
        admit(round_no)
        if pending:
            if policy == "replan":
                chosen = _replan_first_round(pending, caps, planner, report)
            else:
                chosen = _fifo_next_round(fifo_queue)
            if chosen:
                _execute(round_no, chosen)
        round_no += 1
    report.makespan = round_no
    return report


def _instance_for(
    moves: List[Tuple[int, Move]], capacities: Mapping[Node, int]
) -> Tuple[MigrationInstance, Dict[int, int]]:
    """Build an instance from pending moves; map edge id -> move id."""
    graph = Multigraph(nodes=list(capacities))
    edge_to_move: Dict[int, int] = {}
    for idx, (u, v) in moves:
        eid = graph.add_edge(u, v)
        edge_to_move[eid] = idx
    instance = MigrationInstance(graph, capacities)
    return instance, edge_to_move


def _replan_first_round(
    pending: List[Tuple[int, Move]],
    capacities: Mapping[Node, int],
    planner,
    report: OnlineReport,
) -> List[int]:
    instance, edge_to_move = _instance_for(pending, capacities)
    schedule = planner(instance)
    report.plans_computed += 1
    first = schedule.rounds[0] if schedule.num_rounds else []
    return [edge_to_move[eid] for eid in first]


def _plan_batch(
    ids: List[int],
    by_id: Dict[int, Move],
    capacities: Mapping[Node, int],
    planner,
    report: OnlineReport,
) -> List[List[int]]:
    moves = [(i, by_id[i]) for i in ids]
    instance, edge_to_move = _instance_for(moves, capacities)
    schedule = planner(instance)
    report.plans_computed += 1
    return [[edge_to_move[eid] for eid in rnd] for rnd in schedule.rounds]


def _fifo_next_round(queue: List[List[List[int]]]) -> List[int]:
    while queue:
        if queue[0]:
            return queue[0].pop(0)
        queue.pop(0)
    return []


def validate_online(instance: OnlineInstance, result: OnlineReport) -> None:
    """Re-validate a finished online run against its instance.

    Checks, from the report's recorded rounds alone: every admitted
    move completes, completions never precede arrivals, and no
    recorded round exceeds any disk's ``c_v``.  (An
    :class:`OnlineInstance` is arrival-only by construction, so a
    conforming report never records cancellations.)

    Raises:
        ScheduleValidationError: on any violation.
    """
    admitted = sum(len(batch) for batch in instance.arrivals.values())
    if result.cancelled:
        raise ScheduleValidationError(
            f"{len(result.cancelled)} moves cancelled, but an "
            "arrival-only instance admits no cancellations"
        )
    if len(result.timeline) != admitted:
        raise ScheduleValidationError(
            f"{admitted} moves admitted but {len(result.timeline)} completed"
        )
    for idx, (arrived, done) in result.timeline.items():
        if done <= arrived:
            raise ScheduleValidationError(
                f"move {idx} completed in round {done} before arriving at {arrived}"
            )
    executed = [idx for rnd in result.rounds for idx in rnd]
    if sorted(executed) != sorted(result.timeline):
        raise ScheduleValidationError(
            "recorded rounds and completion timeline disagree"
        )
    for i, rnd in enumerate(result.rounds):
        loads: Dict[Node, int] = {}
        for idx in rnd:
            u, v = result.moves[idx]
            loads[u] = loads.get(u, 0) + 1
            loads[v] = loads.get(v, 0) + 1
        for v, n in loads.items():
            if n > instance.capacities[v]:
                raise ScheduleValidationError(
                    f"recorded round {i}: {v!r} runs {n} > c_v={instance.capacities[v]}"
                )
