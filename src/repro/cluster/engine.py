"""Executes migration schedules against a cluster.

The engine turns the scheduler's abstract rounds into simulated time,
which is where the paper's Figure 2 arithmetic lives: a disk splits its
migration bandwidth evenly over the transfers it runs concurrently, so
a transfer's rate is the minimum of its endpoints' per-transfer shares
and a round lasts as long as its slowest transfer.  With unit items and
unit bandwidth, a ``c = 1`` schedule of ``3M`` rounds costs ``3M`` time
while a ``c = 2`` schedule of ``M`` rounds costs ``2M`` — the factor
the paper's introduction claims.

The time model is a :class:`~repro.cluster.network.RateModel`:
:class:`~repro.cluster.network.FairShareRates` (the default) is the
Figure 2 model described above, and
:class:`~repro.cluster.network.UnitRates` charges one time unit per
round (the paper's objective: time == number of rounds).

The engine replays a schedule in one fault-free sweep.  Disk failures
mid-migration, and the replan that finishes the surviving moves, are
:class:`repro.runtime.MigrationExecutor`'s job (``DiskCrash`` faults).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.events import EventLog, ItemMigrated, RoundCompleted, RoundStarted
from repro.cluster.item import ItemId
from repro.cluster.network import FairShareRates, RateModel
from repro.cluster.system import MigrationPlanContext, StorageCluster
from repro.core.schedule import MigrationSchedule
from repro.obs import names
from repro.obs.trace import Tracer, ensure_tracer


@dataclass
class ExecutionReport:
    """Outcome of executing a migration schedule."""

    total_time: float = 0.0
    rounds_executed: int = 0
    migrated_items: List[ItemId] = field(default_factory=list)
    round_durations: List[float] = field(default_factory=list)
    log: EventLog = field(default_factory=EventLog)


class MigrationEngine:
    """Executes :class:`MigrationSchedule` objects on a cluster.

    Args:
        cluster: the cluster to mutate.
        rate_model: any :class:`~repro.cluster.network.RateModel`
            (default :class:`~repro.cluster.network.FairShareRates`,
            Figure 2's model; :class:`~repro.cluster.network.FabricRates`
            for rack topologies, :class:`~repro.cluster.network.UnitRates`
            to count rounds).
        tracer: optional :class:`repro.obs.Tracer`; each
            :meth:`execute` call becomes a ``cluster.execute`` span
            with one ``cluster.round`` child per executed round.  The
            default no-op tracer costs nothing and changes nothing.
    """

    def __init__(
        self,
        cluster: StorageCluster,
        rate_model: Optional[RateModel] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.cluster = cluster
        self.rate_model = rate_model if rate_model is not None else FairShareRates()
        self.tracer = ensure_tracer(tracer)

    def execute(
        self, context: MigrationPlanContext, schedule: MigrationSchedule
    ) -> ExecutionReport:
        """Run the schedule round by round, applying moves to the layout.

        Args:
            context: the plan (instance + edge→item map).
            schedule: a validated schedule for ``context.instance``.
        """
        schedule.validate(context.instance)
        rep = ExecutionReport()
        graph = context.instance.graph
        now = 0.0

        with self.tracer.span(
            names.SPAN_CLUSTER_EXECUTE, rounds=len(schedule.rounds)
        ) as exec_span:
            for round_index, round_edges in enumerate(schedule.rounds):
                rep.log.record(
                    RoundStarted(time=now, round_index=round_index, num_transfers=len(round_edges))
                )
                with self.tracer.span(
                    names.SPAN_CLUSTER_ROUND,
                    round=round_index,
                    transfers=len(round_edges),
                ) as round_span:
                    duration = self.rate_model.round_duration(
                        self.cluster, context, round_edges
                    )
                    for eid in round_edges:
                        src, dst = graph.endpoints(eid)
                        item_id = context.edge_items[eid]
                        self.cluster.apply_move(item_id, dst)
                        rep.migrated_items.append(item_id)
                        rep.log.record(
                            ItemMigrated(
                                time=now + duration,
                                item_id=item_id,
                                source=src,
                                target=dst,
                                duration=duration,
                            )
                        )
                    round_span.set(duration=duration)
                now += duration
                rep.round_durations.append(duration)
                rep.rounds_executed += 1
                rep.log.record(
                    RoundCompleted(time=now, round_index=round_index, duration=duration)
                )
            exec_span.set(
                rounds_executed=rep.rounds_executed, sim_time=now
            )
        rep.total_time = now
        return rep
