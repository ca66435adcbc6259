"""Tests for the migration engine and its time models."""

import pytest

from repro.cluster.disk import Disk
from repro.cluster.events import ItemMigrated, MigrationReplanned, RoundCompleted
from repro.cluster.engine import MigrationEngine
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.system import StorageCluster
from repro import plan


def figure2_cluster(items_per_pair: int, transfer_limit: int):
    """K3 cluster with M items to rotate around the triangle."""
    disks = [
        Disk(disk_id=d, transfer_limit=transfer_limit, bandwidth=1.0)
        for d in ("a", "b", "c")
    ]
    items = []
    layout = Layout()
    target = Layout()
    ring = {"a": "b", "b": "c", "c": "a"}
    for src, dst in ring.items():
        for k in range(items_per_pair):
            item = DataItem(item_id=f"{src}->{dst}/{k}")
            items.append(item)
            layout.place(item.item_id, src)
            target.place(item.item_id, dst)
    cluster = StorageCluster(disks=disks, items=items, layout=layout)
    return cluster, target


class TestTimeModels:
    def test_unit_model_counts_rounds(self):
        cluster, target = figure2_cluster(3, transfer_limit=1)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        report = MigrationEngine(cluster, time_model="unit").execute(ctx, sched)
        assert report.total_time == sched.num_rounds

    def test_figure2_arithmetic_c1_vs_c2(self):
        """The paper's Figure 2: 3M time at c=1 vs 2M at c=2."""
        M = 4
        c1, t1 = figure2_cluster(M, transfer_limit=1)
        ctx1 = c1.migration_to(t1)
        s1 = plan(ctx1.instance).schedule
        r1 = MigrationEngine(c1).execute(ctx1, s1)
        assert r1.total_time == pytest.approx(3 * M)

        c2, t2 = figure2_cluster(M, transfer_limit=2)
        ctx2 = c2.migration_to(t2)
        s2 = plan(ctx2.instance).schedule
        r2 = MigrationEngine(c2).execute(ctx2, s2)
        assert r2.total_time == pytest.approx(2 * M)

    def test_bandwidth_split_slowest_transfer_rules(self):
        # One fast and one slow disk: the slow endpoint sets the pace.
        disks = [
            Disk(disk_id="slow", transfer_limit=1, bandwidth=0.5),
            Disk(disk_id="fast", transfer_limit=1, bandwidth=4.0),
        ]
        item = DataItem(item_id="x")
        cluster = StorageCluster(
            disks=disks, items=[item], layout=Layout({"x": "slow"})
        )
        ctx = cluster.migration_to(Layout({"x": "fast"}))
        sched = plan(ctx.instance).schedule
        report = MigrationEngine(cluster).execute(ctx, sched)
        assert report.total_time == pytest.approx(1.0 / 0.5)

    def test_unknown_time_model(self):
        cluster, _ = figure2_cluster(1, 1)
        with pytest.raises(ValueError):
            MigrationEngine(cluster, time_model="warp")


class TestExecution:
    def test_layout_reaches_target(self):
        cluster, target = figure2_cluster(3, transfer_limit=2)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        MigrationEngine(cluster).execute(ctx, sched)
        for item_id in target.items:
            assert cluster.layout.disk_of(item_id) == target.disk_of(item_id)

    def test_events_recorded(self):
        cluster, target = figure2_cluster(2, transfer_limit=1)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        report = MigrationEngine(cluster).execute(ctx, sched)
        migrations = report.log.of_type(ItemMigrated)
        assert len(migrations) == ctx.num_moves
        rounds = report.log.of_type(RoundCompleted)
        assert len(rounds) == sched.num_rounds

    def test_round_durations_sum_to_total(self):
        cluster, target = figure2_cluster(3, transfer_limit=2)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        report = MigrationEngine(cluster).execute(ctx, sched)
        assert sum(report.round_durations) == pytest.approx(report.total_time)


class TestFailureInjection:
    def test_failure_aborts_and_reports_stranded(self):
        cluster, target = figure2_cluster(4, transfer_limit=1)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        assert sched.num_rounds > 2
        report = MigrationEngine(cluster).execute(
            ctx, sched, fail_disk_after_round=(0, "a")
        )
        assert report.rounds_executed == 1
        assert report.stranded_items
        assert "a" not in cluster.disks

    def test_replan_finishes_surviving_moves(self):
        # Items flowing d0 -> d1/d2; d2 fails after round 0; moves that
        # targeted d2 are re-aimed at survivors and everything whose
        # source survives completes.
        disks = [Disk(disk_id=f"d{i}", transfer_limit=1) for i in range(3)]
        items = [DataItem(item_id=f"i{k}") for k in range(6)]
        layout = Layout({f"i{k}": "d0" for k in range(6)})
        target = Layout({f"i{k}": ("d1" if k % 2 else "d2") for k in range(6)})
        cluster = StorageCluster(disks=disks, items=items, layout=layout)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        engine = MigrationEngine(cluster, time_model="unit")
        report = engine.execute_with_replan(
            ctx,
            sched,
            fail_after_round=0,
            failed_disk="d2",
            planner=lambda inst: plan(inst).schedule,
        )
        assert report.replans == 1
        assert report.log.of_type(MigrationReplanned)
        # Every item is off d0 or was already moved; none lost since
        # the failed disk was never a source of pending moves... items
        # already moved to d2 before the failure stay accounted for.
        for item_id in layout.items:
            disk = cluster.layout.disk_of(item_id)
            assert disk in ("d1", "d0", "d2")
        assert not any(
            cluster.layout.disk_of(i) == "d0" for i in report.migrated_items
        )

    def test_failure_on_last_round_needs_no_replan(self):
        """Nothing is pending after the final round: the disk failure
        costs nothing and no replan happens."""
        cluster, target = figure2_cluster(4, transfer_limit=1)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        engine = MigrationEngine(cluster, time_model="unit")
        report = engine.execute_with_replan(
            ctx,
            sched,
            fail_after_round=sched.num_rounds - 1,
            failed_disk="a",
            planner=lambda inst: plan(inst).schedule,
        )
        assert report.replans == 0
        assert report.stranded_items == []
        assert len(report.migrated_items) == ctx.num_moves
        assert report.rounds_executed == sched.num_rounds
        for item_id in target.items:
            assert cluster.layout.disk_of(item_id) == target.disk_of(item_id)

    def test_failure_of_uninvolved_disk_strands_nothing(self):
        """A disk with zero remaining transfers dies: the replan simply
        finishes the interrupted schedule with the original targets."""
        disks = [Disk(disk_id=f"d{i}", transfer_limit=1) for i in range(4)]
        items = [DataItem(item_id=f"i{k}") for k in range(4)]
        layout = Layout({f"i{k}": "d0" for k in range(4)})
        # d3 holds nothing and is neither source nor target of any move.
        target = Layout({f"i{k}": ("d1" if k % 2 else "d2") for k in range(4)})
        cluster = StorageCluster(disks=disks, items=items, layout=layout)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        assert sched.num_rounds > 1
        engine = MigrationEngine(cluster, time_model="unit")
        report = engine.execute_with_replan(
            ctx,
            sched,
            fail_after_round=0,
            failed_disk="d3",
            planner=lambda inst: plan(inst).schedule,
        )
        assert report.stranded_items == []
        assert sorted(report.migrated_items) == sorted(layout.items)
        assert report.replans == 1  # the abort still re-schedules the rest
        for item_id in target.items:
            assert cluster.layout.disk_of(item_id) == target.disk_of(item_id)

    def test_stranded_reporting_is_exact_and_duplicate_free(self):
        """Stranded == items still sourced on the failed disk, once each."""
        disks = [Disk(disk_id=f"d{i}", transfer_limit=2) for i in range(3)]
        items = [DataItem(item_id=f"i{k}") for k in range(6)]
        layout = Layout(
            {f"i{k}": ("d0" if k < 4 else "d1") for k in range(6)}
        )
        target = Layout({f"i{k}": "d2" for k in range(6)})
        cluster = StorageCluster(disks=disks, items=items, layout=layout)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        engine = MigrationEngine(cluster, time_model="unit")
        report = engine.execute_with_replan(
            ctx,
            sched,
            fail_after_round=0,
            failed_disk="d0",
            planner=lambda inst: plan(inst).schedule,
        )
        assert len(report.stranded_items) == len(set(report.stranded_items))
        for item_id in report.stranded_items:
            assert cluster.layout.disk_of(item_id) == "d0"
        # Conservation: every move is migrated or stranded, never both.
        assert not set(report.migrated_items) & set(report.stranded_items)
        assert len(report.migrated_items) + len(report.stranded_items) == ctx.num_moves

    def test_replan_reports_lost_items_from_failed_source(self):
        disks = [Disk(disk_id=f"d{i}", transfer_limit=1) for i in range(2)]
        items = [DataItem(item_id=f"i{k}") for k in range(4)]
        layout = Layout({f"i{k}": "d0" for k in range(4)})
        target = Layout({f"i{k}": "d1" for k in range(4)})
        cluster = StorageCluster(disks=disks, items=items, layout=layout)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        engine = MigrationEngine(cluster, time_model="unit")
        report = engine.execute_with_replan(
            ctx,
            sched,
            fail_after_round=0,
            failed_disk="d0",
            planner=lambda inst: plan(inst).schedule,
        )
        # One item moved in round 0; the rest were sourced on d0.
        assert len(report.migrated_items) == 1
        assert len(report.stranded_items) == 3
