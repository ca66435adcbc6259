"""Network models: how fast does a round actually run?

The paper assumes "a very fast network connection dedicated to support
a storage system" (Section II), i.e. the disks are the bottleneck.
Real clusters sit on rack fabrics with oversubscribed cores, so the
simulator makes the rate computation pluggable:

* :class:`UnitRates` — every round costs one time unit, so simulated
  time equals the number of rounds (the paper's objective).
* :class:`FairShareRates` — the paper's Figure 2 model (and the
  engine's and executor's default): each disk splits its bandwidth
  over the transfers it actually runs this round; a transfer's rate is
  the min of its endpoints' shares.
* :class:`ReservedLaneRates` — each disk statically partitions its
  bandwidth into ``c_v`` lanes regardless of use; matches the eager
  engine's assumption, enabling apples-to-apples comparison.
* :class:`FabricRates` — wraps another model and adds a two-level rack
  topology: transfers crossing racks additionally share each rack's
  uplink, whose capacity is ``rack_bandwidth / oversubscription``.
  ``bench_network`` sweeps the oversubscription factor.

A model's only obligation is :meth:`RateModel.round_duration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Protocol, Tuple

from repro.cluster.disk import DiskId
from repro.cluster.system import MigrationPlanContext, StorageCluster
from repro.graphs.multigraph import EdgeId


class RateModel(Protocol):
    """Strategy for turning a round of transfers into a duration."""

    def round_duration(
        self,
        cluster: StorageCluster,
        context: MigrationPlanContext,
        round_edges: List[EdgeId],
    ) -> float:
        """Simulated duration of executing ``round_edges`` together."""
        ...


def _concurrency(context: MigrationPlanContext, round_edges: List[EdgeId]) -> Dict[DiskId, int]:
    counts: Dict[DiskId, int] = {}
    graph = context.instance.graph
    for eid in round_edges:
        u, v = graph.endpoints(eid)
        counts[u] = counts.get(u, 0) + 1
        counts[v] = counts.get(v, 0) + 1
    return counts


class UnitRates:
    """Every round costs one time unit, whatever it carries."""

    def round_duration(self, cluster, context, round_edges) -> float:
        return 1.0


class FairShareRates:
    """Figure 2 semantics: bandwidth splits over *actual* concurrency."""

    def round_duration(self, cluster, context, round_edges) -> float:
        if not round_edges:
            return 0.0
        graph = context.instance.graph
        counts = _concurrency(context, round_edges)
        duration = 0.0
        for eid in round_edges:
            u, v = graph.endpoints(eid)
            item = cluster.items[context.edge_items[eid]]
            rate = min(
                cluster.disk(u).per_transfer_rate(counts[u]),
                cluster.disk(v).per_transfer_rate(counts[v]),
            )
            duration = max(duration, item.size / rate)
        return duration


class ReservedLaneRates:
    """Static lanes: every transfer gets ``bandwidth / c_v`` at best."""

    def round_duration(self, cluster, context, round_edges) -> float:
        if not round_edges:
            return 0.0
        graph = context.instance.graph
        duration = 0.0
        for eid in round_edges:
            u, v = graph.endpoints(eid)
            item = cluster.items[context.edge_items[eid]]
            du, dv = cluster.disk(u), cluster.disk(v)
            rate = min(
                du.bandwidth / du.transfer_limit, dv.bandwidth / dv.transfer_limit
            )
            duration = max(duration, item.size / rate)
        return duration


@dataclass
class FabricTopology:
    """Two-level topology: disks live in racks behind shared uplinks.

    Attributes:
        rack_of: disk -> rack assignment (disks absent default to the
            ``default_rack``).
        uplink_bandwidth: per-rack uplink capacity in size units per
            time unit, *after* oversubscription is applied.
    """

    rack_of: Dict[DiskId, str] = field(default_factory=dict)
    uplink_bandwidth: float = 4.0
    default_rack: str = "rack0"

    def rack(self, disk_id: DiskId) -> str:
        return self.rack_of.get(disk_id, self.default_rack)

    def crosses_racks(self, u: DiskId, v: DiskId) -> bool:
        return self.rack(u) != self.rack(v)

    @classmethod
    def striped(cls, disk_ids: Iterable[DiskId], racks: int, uplink_bandwidth: float) -> "FabricTopology":
        """Assign disks to ``racks`` racks round-robin."""
        assignment = {
            d: f"rack{i % racks}" for i, d in enumerate(sorted(disk_ids, key=repr))
        }
        return cls(rack_of=assignment, uplink_bandwidth=uplink_bandwidth)


class FabricRates:
    """Endpoint shares capped by rack-uplink shares.

    A cross-rack transfer also consumes both racks' uplinks; each
    uplink splits its bandwidth evenly over the cross-rack transfers
    using it this round.
    """

    def __init__(self, topology: FabricTopology, inner: Optional[RateModel] = None):
        self.topology = topology
        self.inner = inner if inner is not None else FairShareRates()

    def round_duration(self, cluster, context, round_edges) -> float:
        if not round_edges:
            return 0.0
        graph = context.instance.graph
        counts = _concurrency(context, round_edges)
        # Cross-rack transfer count per rack uplink.
        uplink_load: Dict[str, int] = {}
        for eid in round_edges:
            u, v = graph.endpoints(eid)
            if self.topology.crosses_racks(u, v):
                for rack in (self.topology.rack(u), self.topology.rack(v)):
                    uplink_load[rack] = uplink_load.get(rack, 0) + 1

        duration = 0.0
        for eid in round_edges:
            u, v = graph.endpoints(eid)
            item = cluster.items[context.edge_items[eid]]
            rate = min(
                cluster.disk(u).per_transfer_rate(counts[u]),
                cluster.disk(v).per_transfer_rate(counts[v]),
            )
            if self.topology.crosses_racks(u, v):
                for rack in (self.topology.rack(u), self.topology.rack(v)):
                    share = self.topology.uplink_bandwidth / uplink_load[rack]
                    rate = min(rate, share)
            duration = max(duration, item.size / rate)
        return duration


def rack_locality(context: MigrationPlanContext, topology: FabricTopology) -> float:
    """Fraction of transfers that stay within a rack (0..1)."""
    graph = context.instance.graph
    edges = list(context.edge_items)
    if not edges:
        return 1.0
    local = sum(
        1
        for eid in edges
        if not topology.crosses_racks(*graph.endpoints(eid))
    )
    return local / len(edges)
