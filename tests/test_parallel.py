"""Tests for the parallel refresh subsystem: worker pools, dependency
waves, DAG-parallel scheduling, row-level commit conflicts, and the
thread-safety of the shared monitors."""

import threading
import time as wallclock

import pytest

from repro import Database
from repro.core.graph import DependencyGraph
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.errors import LockConflict
from repro.scheduler.clock import SimClock
from repro.scheduler.executor import dependency_waves
from repro.scheduler.liveness import LivenessMonitor
from repro.server.server import ServerStats
from repro.storage.catalog import Catalog
from repro.txn.manager import TransactionManager
from repro.util.parallel import WorkerPool
from repro.util.timeutil import MINUTE, SECOND


class TestWorkerPool:
    def test_results_in_input_order(self):
        pool = WorkerPool(4)
        try:
            def slow_then_fast(value):
                # The first item sleeps so later items finish first.
                if value == 0:
                    wallclock.sleep(0.02)
                return value * 10
            assert pool.map_ordered(slow_then_fast, list(range(8))) == \
                [value * 10 for value in range(8)]
        finally:
            pool.close()

    def test_single_worker_runs_inline(self):
        pool = WorkerPool(1)
        thread_names = []
        pool.map_ordered(
            lambda _: thread_names.append(threading.current_thread().name),
            [1, 2, 3])
        assert pool._executor is None
        assert thread_names == [threading.current_thread().name] * 3

    def test_worker_exception_propagates(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(ValueError):
                pool.map_ordered(lambda _: (_ for _ in ()).throw(
                    ValueError("boom")), [1, 2])
        finally:
            pool.close()

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map_ordered(lambda value: value, [1, 2])

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


def _graph_db():
    """src → a, b (independent) → c (joins a and b); d reads src only."""
    db = Database()
    db.create_warehouse("wh", size=4)
    db.execute("CREATE TABLE src (k INT, v INT)")
    db.execute("INSERT INTO src VALUES " +
               ", ".join(f"({i % 5}, {i})" for i in range(40)))
    db.execute("CREATE DYNAMIC TABLE a TARGET_LAG = '1 minute' "
               "WAREHOUSE = wh AS SELECT k, sum(v) s FROM src GROUP BY k")
    db.execute("CREATE DYNAMIC TABLE b TARGET_LAG = '1 minute' "
               "WAREHOUSE = wh AS SELECT k, count(*) n FROM src GROUP BY k")
    db.execute("CREATE DYNAMIC TABLE c TARGET_LAG = '1 minute' "
               "WAREHOUSE = wh AS SELECT a.k, a.s + b.n t FROM a "
               "JOIN b ON a.k = b.k")
    db.execute("CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' "
               "WAREHOUSE = wh AS SELECT k FROM src WHERE v > 10")
    return db


class TestDependencyWaves:
    def _waves(self, db, due_names):
        graph = DependencyGraph(db.catalog)
        order = [dt for dt in graph.topological_order()
                 if dt.name in due_names]
        return [[dt.name for dt in wave]
                for wave in dependency_waves(order, graph)]

    def test_diamond(self):
        db = _graph_db()
        waves = self._waves(db, {"a", "b", "c", "d"})
        assert sorted(waves[0]) == ["a", "b", "d"]
        assert waves[1] == ["c"]

    def test_non_due_upstream_imposes_no_ordering(self):
        # a and b are not due this tick: their versions hold still, so c
        # belongs to wave 0 alongside the unrelated d.
        db = _graph_db()
        waves = self._waves(db, {"c", "d"})
        assert len(waves) == 1
        assert sorted(waves[0]) == ["c", "d"]

    def test_chain_of_dependents(self):
        db = Database()
        db.create_warehouse("wh")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("CREATE DYNAMIC TABLE x TARGET_LAG = '1 minute' "
                   "WAREHOUSE = wh AS SELECT a FROM t")
        db.execute("CREATE DYNAMIC TABLE y TARGET_LAG = '1 minute' "
                   "WAREHOUSE = wh AS SELECT a FROM x")
        db.execute("CREATE DYNAMIC TABLE z TARGET_LAG = '1 minute' "
                   "WAREHOUSE = wh AS SELECT a FROM y")
        waves = self._waves(db, {"x", "y", "z"})
        assert waves == [["x"], ["y"], ["z"]]


def _run_workload(parallelism=None):
    """A multi-DT graph under a mutation stream; returns the final
    (row_id, row) states of every DT plus the scheduler report."""
    db = Database(parallelism=parallelism)
    db.create_warehouse("wh", size=4)
    db.execute("CREATE TABLE src (k INT, v INT)")
    db.execute("INSERT INTO src VALUES " +
               ", ".join(f"({i % 7}, {i})" for i in range(1200)))
    db.execute("CREATE DYNAMIC TABLE agg TARGET_LAG = '1 minute' "
               "WAREHOUSE = wh AS SELECT k, sum(v) s, count(*) n "
               "FROM src GROUP BY k")
    db.execute("CREATE DYNAMIC TABLE filt TARGET_LAG = '1 minute' "
               "WAREHOUSE = wh AS SELECT k, v FROM src WHERE v % 3 = 0")
    db.execute("CREATE DYNAMIC TABLE joined TARGET_LAG = '1 minute' "
               "WAREHOUSE = wh AS SELECT f.k, f.v, a.s FROM filt f "
               "JOIN agg a ON f.k = a.k")
    db.execute("CREATE DYNAMIC TABLE dis TARGET_LAG = '1 minute' "
               "WAREHOUSE = wh AS SELECT DISTINCT k FROM src")

    def mutate(step):
        def run():
            db.execute("INSERT INTO src VALUES " + ", ".join(
                f"({i % 5}, {1000 * step + i})" for i in range(700)))
            if step == 2:
                db.execute("DELETE FROM src WHERE v % 4 = 1")
        return run

    for step in range(1, 4):
        db.scheduler.at(step * 70 * SECOND, mutate(step))
    report = db.scheduler.run_until(6 * MINUTE)
    states = {
        name: sorted(db.catalog.versioned_table(name).rows_by_id().items())
        for name in ("agg", "filt", "joined", "dis")}
    return db, states, report


class TestDagParallelEquivalence:
    def test_states_byte_identical_to_serial(self):
        __, serial, serial_report = _run_workload()
        __, parallel, parallel_report = _run_workload(parallelism=4)
        assert parallel == serial
        assert (parallel_report.refreshes_succeeded
                == serial_report.refreshes_succeeded)
        assert (parallel_report.refreshes_skipped
                == serial_report.refreshes_skipped)

    def test_wave_metadata_recorded(self):
        db, __, __ = _run_workload(parallelism=4)
        joined = [record for record
                  in db.catalog.get("joined").payload.refresh_history
                  if record.succeeded and record.parallel]
        assert joined, "DAG-parallel refreshes must carry wave metadata"
        info = joined[-1].parallel
        assert info["workers"] == 4
        # joined depends on two due DTs, so it can never sit in wave 1.
        assert 1 < info["wave"] <= info["waves"]

    def test_serial_default_records_no_metadata(self):
        db, __, __ = _run_workload()
        records = [record for record
                   in db.catalog.get("joined").payload.refresh_history]
        assert all(record.parallel is None for record in records)

    def test_set_parallelism_toggles(self):
        db, __, __ = _run_workload()
        assert db.scheduler._coordinator is None
        db.set_parallelism(2)
        assert db.scheduler._coordinator is not None
        assert db.scheduler._dispatch_slots != []
        db.set_parallelism(None)
        assert db.scheduler._coordinator is None
        assert db.scheduler._dispatch_slots == []

    def test_explain_reports_parallelism(self):
        db, __, __ = _run_workload(parallelism=4)
        text = db.explain("SELECT * FROM joined")
        assert "-- parallel joined: wave " in text
        assert "workers=4" in text


class TestDispatchSlotModel:
    """The simulated clock models ``parallelism=N`` as N dispatch slots:
    independent refreshes overlap up to N at a time."""

    def _two_independent(self, parallelism):
        db = Database(parallelism=parallelism)
        db.create_warehouse("wh", size=4)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES " +
                   ", ".join(f"({i})" for i in range(50)))
        db.execute("CREATE DYNAMIC TABLE p TARGET_LAG = '1 minute' "
                   "WAREHOUSE = wh AS SELECT a FROM t WHERE a % 2 = 0")
        db.execute("CREATE DYNAMIC TABLE q TARGET_LAG = '1 minute' "
                   "WAREHOUSE = wh AS SELECT a FROM t WHERE a % 2 = 1")
        db.execute("INSERT INTO t VALUES (100), (101)")
        db.scheduler.run_until(90 * SECOND)
        records = {}
        for name in ("p", "q"):
            history = db.catalog.get(name).payload.refresh_history
            records[name] = [r for r in history if r.succeeded][-1]
        return records

    def test_single_slot_serializes(self):
        records = self._two_independent(parallelism=1)
        starts = sorted(r.start_wall for r in records.values())
        ends = sorted(r.end_wall for r in records.values())
        # One dispatch slot: the second refresh starts when the first ends.
        assert starts[1] == ends[0]

    def test_two_slots_overlap(self):
        records = self._two_independent(parallelism=2)
        # Two dispatch slots: both independent refreshes start at their
        # shared data timestamp instead of queueing on one slot.
        assert records["p"].start_wall == records["q"].start_wall
        assert (records["p"].start_wall
                == records["p"].data_timestamp)


@pytest.fixture
def txn_setup():
    clock = SimClock()
    catalog = Catalog(clock.now)
    manager = TransactionManager(catalog, clock.now)
    catalog.create_table("t", schema_of(("a", SqlType.INT)))
    return clock, catalog, manager


class TestRowLevelConflicts:
    """First-committer-wins at row granularity: only overlapping row
    footprints (or table overwrites) conflict."""

    def _seed(self, clock, manager, rows):
        txn = manager.begin()
        txn.insert_rows("t", rows)
        txn.commit()
        clock.advance(SECOND)
        table = manager.catalog.versioned_table("t")
        return list(table.rows_by_id())

    def test_disjoint_updates_both_commit(self, txn_setup):
        clock, __, manager = txn_setup
        ids = self._seed(clock, manager, [(1,), (2,), (3,)])
        one = manager.begin()
        two = manager.begin()
        one.update_rows("t", {ids[0]: (10,)})
        two.update_rows("t", {ids[1]: (20,)})
        one.commit()
        clock.advance(SECOND)
        two.commit()
        reader = manager.begin()
        assert sorted(reader.scan("t").rows) == [(3,), (10,), (20,)]

    def test_overlapping_update_conflicts(self, txn_setup):
        clock, __, manager = txn_setup
        ids = self._seed(clock, manager, [(1,), (2,)])
        # The victim's snapshot predates the winner's commit wall.
        victim = manager.begin(snapshot_wall=0)
        winner = manager.begin()
        victim.delete_rows("t", [ids[0]])
        winner.update_rows("t", {ids[0]: (10,)})
        winner.commit()
        with pytest.raises(LockConflict):
            victim.commit()

    def test_overwrite_conflicts_with_disjoint_writer(self, txn_setup):
        clock, __, manager = txn_setup
        ids = self._seed(clock, manager, [(1,), (2,)])
        victim = manager.begin(snapshot_wall=0)
        winner = manager.begin()
        # The victim writes a row the overwrite never touched explicitly —
        # but an overwrite rewrites the whole table, so it conflicts with
        # every non-blind write regardless of footprint.
        victim.update_rows("t", {ids[1]: (20,)})
        winner.overwrite("t", [(9,)])
        winner.commit()
        with pytest.raises(LockConflict):
            victim.commit()

    def test_overwrite_loses_to_committed_row_write(self, txn_setup):
        clock, __, manager = txn_setup
        ids = self._seed(clock, manager, [(1,), (2,)])
        victim = manager.begin(snapshot_wall=0)
        winner = manager.begin()
        victim.overwrite("t", [(9,)])
        winner.update_rows("t", {ids[0]: (10,)})
        winner.commit()
        with pytest.raises(LockConflict):
            victim.commit()

    def test_insert_only_still_exempt(self, txn_setup):
        clock, __, manager = txn_setup
        self._seed(clock, manager, [(1,)])
        one = manager.begin()
        two = manager.begin()
        one.insert_rows("t", [(2,)])
        two.insert_rows("t", [(3,)])
        one.commit()
        clock.advance(SECOND)
        two.commit()
        reader = manager.begin()
        assert sorted(reader.scan("t").rows) == [(1,), (2,), (3,)]


class TestLivenessMonitorThreadSafety:
    def test_concurrent_begin_end_and_check(self):
        """Regression: the background check iterates the EXECUTING set
        while coordinator workers begin/end refreshes. Unguarded, this
        raised ``RuntimeError: dictionary changed size during
        iteration``."""
        monitor = LivenessMonitor()
        errors = []
        stop = threading.Event()

        def churn(worker):
            try:
                for round_number in range(300):
                    name = f"dt-{worker}-{round_number % 7}"
                    monitor.begin(name, round_number, round_number)
                    monitor.heartbeat(name, round_number + 1)
                    monitor.end(name, round_number + 2, True)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def check():
            try:
                while not stop.is_set():
                    monitor.check(10**9)
                    monitor.executing()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        checker = threading.Thread(target=check)
        workers = [threading.Thread(target=churn, args=(i,))
                   for i in range(4)]
        checker.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        checker.join()
        assert errors == []
        assert monitor.executing() == []
        assert len(monitor.history) == 4 * 300


class TestServerStatsThreadSafety:
    def test_concurrent_counters_exact(self):
        stats = ServerStats()

        def hammer():
            for __ in range(500):
                stats.count_statement()
                stats.count_commit(attempts_used=2)
                stats.count_conflict()

        threads = [threading.Thread(target=hammer) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = stats.snapshot()
        assert snap["statements"] == 8 * 500
        assert snap["commits"] == 8 * 500
        assert snap["retries"] == 8 * 500
        assert snap["conflicts"] == 8 * 500
