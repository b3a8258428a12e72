"""Tests for the transaction manager and locks."""

import pytest

from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.errors import LockConflict, TransactionError
from repro.scheduler.clock import SimClock
from repro.storage.catalog import Catalog
from repro.txn.locks import LockManager
from repro.txn.manager import TransactionManager
from repro.util.timeutil import SECOND

from deltas import columns_of


@pytest.fixture
def setup():
    clock = SimClock()
    catalog = Catalog(clock.now)
    manager = TransactionManager(catalog, clock.now)
    catalog.create_table("t", schema_of(("a", SqlType.INT)))
    return clock, catalog, manager


class TestLockManager:
    def test_exclusive(self):
        locks = LockManager()
        locks.acquire("t", 1)
        with pytest.raises(LockConflict):
            locks.acquire("t", 2)

    def test_reentrant(self):
        locks = LockManager()
        locks.acquire("t", 1)
        locks.acquire("t", 1)

    def test_release_all(self):
        locks = LockManager()
        locks.acquire("a", 1)
        locks.acquire("b", 1)
        locks.release_all(1)
        locks.acquire("a", 2)
        locks.acquire("b", 2)

    def test_release_wrong_holder_is_noop(self):
        locks = LockManager()
        locks.acquire("t", 1)
        locks.release("t", 2)
        assert locks.holder_of("t") == 1


class TestTransactions:
    def test_insert_commit_read(self, setup):
        clock, catalog, manager = setup
        txn = manager.begin()
        txn.insert_rows("t", columns_of([(1,), (2,)]))
        txn.commit()
        reader = manager.begin()
        assert sorted(reader.scan("t").rows) == [(1,), (2,)]

    def test_uncommitted_writes_invisible(self, setup):
        clock, catalog, manager = setup
        writer = manager.begin()
        writer.insert_rows("t", columns_of([(1,)]))
        reader = manager.begin()
        assert reader.scan("t").rows == []
        writer.commit()

    def test_snapshot_reads_are_stable(self, setup):
        clock, catalog, manager = setup
        txn = manager.begin()
        txn.insert_rows("t", columns_of([(1,)]))
        txn.commit()
        clock.advance(SECOND)
        reader = manager.begin()  # snapshot at t=1s
        clock.advance(SECOND)
        writer = manager.begin()
        writer.insert_rows("t", columns_of([(2,)]))
        writer.commit()
        assert reader.scan("t").rows == [(1,)]

    def test_write_write_conflict(self, setup):
        clock, catalog, manager = setup
        first = manager.begin()
        first.insert_rows("t", columns_of([(1,)]))
        first.commit()
        clock.advance(SECOND)
        # First-committer-wins is row-level: writes conflict when a
        # commit after the transaction's snapshot touched the *same*
        # rows. Here both transactions update/delete the one row.
        table = catalog.versioned_table("t")
        row_id = next(iter(table.rows_by_id()))
        stale = manager.begin(snapshot_wall=0)
        stale.delete_rows("t", [row_id])
        third = manager.begin()
        third.update_rows("t", {row_id: (4,)})
        third.commit()
        with pytest.raises(LockConflict):
            stale.commit()

    def test_disjoint_row_writers_both_commit(self, setup):
        clock, catalog, manager = setup
        first = manager.begin()
        first.insert_rows("t", columns_of([(1,), (2,)]))
        first.commit()
        clock.advance(SECOND)
        table = catalog.versioned_table("t")
        ids = sorted(table.rows_by_id())
        # Two concurrent writers touching different rows of one table:
        # row-level first-committer-wins lets both commit.
        one = manager.begin()
        other = manager.begin()
        one.update_rows("t", {ids[0]: (10,)})
        other.delete_rows("t", [ids[1]])
        one.commit()
        clock.advance(SECOND)
        other.commit()
        reader = manager.begin()
        assert sorted(reader.scan("t").rows) == [(10,)]

    def test_blind_append_exempt_from_conflict(self, setup):
        clock, catalog, manager = setup
        stale = manager.begin(snapshot_wall=0)
        stale.insert_rows("t", columns_of([(1,)]))
        other = manager.begin()
        other.insert_rows("t", columns_of([(2,)]))
        other.commit()
        clock.advance(SECOND)
        stale.commit()  # insert-only: cannot lose an update, no conflict
        reader = manager.begin()
        assert sorted(reader.scan("t").rows) == [(1,), (2,)]

    def test_commit_twice_rejected(self, setup):
        __, __, manager = setup
        txn = manager.begin()
        txn.insert_rows("t", columns_of([(1,)]))
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_abort_discards(self, setup):
        __, __, manager = setup
        txn = manager.begin()
        txn.insert_rows("t", columns_of([(1,)]))
        txn.abort()
        assert manager.begin().scan("t").rows == []
        with pytest.raises(TransactionError):
            txn.commit()

    def test_locks_released_on_commit(self, setup):
        __, __, manager = setup
        first = manager.begin()
        first.lock("t")
        first.insert_rows("t", columns_of([(1,)]))
        first.commit()
        second = manager.begin()
        second.lock("t")  # no conflict: released at commit

    def test_locks_released_on_abort(self, setup):
        __, __, manager = setup
        first = manager.begin()
        first.lock("t")
        first.abort()
        manager.begin().lock("t")

    def test_lock_conflict_between_transactions(self, setup):
        __, __, manager = setup
        first = manager.begin()
        first.lock("t")
        second = manager.begin()
        with pytest.raises(LockConflict):
            second.lock("t")

    def test_pinned_version_read(self, setup):
        clock, catalog, manager = setup
        txn = manager.begin()
        txn.insert_rows("t", columns_of([(1,)]))
        txn.commit()
        table = catalog.versioned_table("t")
        old = table.current_version
        clock.advance(SECOND)
        txn2 = manager.begin()
        txn2.insert_rows("t", columns_of([(2,)]))
        txn2.commit()
        clock.advance(SECOND)
        reader = manager.begin()
        reader.pin_version("t", old)
        assert reader.scan("t").rows == [(1,)]

    def test_reader_sees_commits_at_wall(self, setup):
        clock, catalog, manager = setup
        txn = manager.begin()
        txn.insert_rows("t", columns_of([(1,)]))
        txn.commit()
        reader = manager.reader()
        assert reader.scan("t").rows == [(1,)]

    def test_multi_table_atomic_commit(self, setup):
        clock, catalog, manager = setup
        catalog.create_table("u", schema_of(("b", SqlType.INT)))
        txn = manager.begin()
        txn.insert_rows("t", columns_of([(1,)]))
        txn.insert_rows("u", columns_of([(2,)]))
        commit_ts = txn.commit()
        t_version = catalog.versioned_table("t").current_version
        u_version = catalog.versioned_table("u").current_version
        assert t_version.commit_ts == commit_ts == u_version.commit_ts
