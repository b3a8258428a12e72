"""Tests for change queries over versioned tables (streams)."""

from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.ivm.changes import Action
from repro.storage.table import StagedWrite, VersionedTable
from repro.streams.changes import (changes_between, changes_since,
                                   is_data_equivalent_interval)
from repro.txn.hlc import HlcTimestamp

from deltas import columns_of, deletes, inserts


def make_table(partition_rows=3):
    schema = schema_of(("a", SqlType.INT),)
    return VersionedTable("t", schema, 1, partition_rows=partition_rows)


class TestBasicDiffs:
    def test_empty_interval(self):
        table = make_table()
        version = table.apply(StagedWrite(inserts=columns_of([(1,)])),
                              HlcTimestamp(10))
        assert len(changes_between(table, version, version)) == 0

    def test_inserts_only(self):
        table = make_table()
        v0 = table.current_version
        table.apply(StagedWrite(inserts=columns_of([(1,), (2,)])),
                    HlcTimestamp(10))
        changes = changes_since(table, v0)
        assert changes.insert_only
        assert sorted(c.row for c in changes) == [(1,), (2,)]

    def test_delete_appears(self):
        table = make_table()
        table.apply(StagedWrite(inserts=columns_of([(1,), (2,)])),
                    HlcTimestamp(10))
        v1 = table.current_version
        table.apply(StagedWrite(deletes={"b1:0"}), HlcTimestamp(20))
        changes = changes_between(table, v1, table.current_version)
        assert [c.action for c in changes] == [Action.DELETE]
        assert deletes(changes)[0].row == (1,)

    def test_update_is_delete_plus_insert_same_id(self):
        table = make_table()
        table.apply(StagedWrite(inserts=columns_of([(1,)])), HlcTimestamp(10))
        v1 = table.current_version
        table.apply(StagedWrite(updates={"b1:0": (9,)}), HlcTimestamp(20))
        changes = changes_between(table, v1, table.current_version)
        assert len(changes) == 2
        assert deletes(changes)[0].row_id == inserts(changes)[0].row_id


class TestReadAmplificationCancellation:
    def test_copied_rows_cancel(self):
        """Deleting one row of a shared partition rewrites the partition;
        the surviving (copied) rows must not appear in the stream."""
        table = make_table(partition_rows=10)
        table.apply(StagedWrite(inserts=columns_of([(i,) for i in range(8)])),
                    HlcTimestamp(10))
        v1 = table.current_version
        table.apply(StagedWrite(deletes={"b1:3"}), HlcTimestamp(20))
        changes = changes_between(table, v1, table.current_version)
        assert len(changes) == 1
        assert deletes(changes)[0].row == (3,)

    def test_transient_row_never_appears(self):
        table = make_table()
        v0 = table.current_version
        table.apply(StagedWrite(inserts=columns_of([(1,)])), HlcTimestamp(10))
        table.apply(StagedWrite(deletes={"b1:0"}), HlcTimestamp(20))
        changes = changes_between(table, v0, table.current_version)
        assert len(changes) == 0


class TestDataEquivalence:
    def test_recluster_produces_no_changes(self):
        table = make_table(partition_rows=2)
        table.apply(StagedWrite(inserts=columns_of([(i,) for i in range(6)])),
                    HlcTimestamp(10))
        v1 = table.current_version
        table.recluster(HlcTimestamp(20))
        changes = changes_between(table, v1, table.current_version)
        assert len(changes) == 0

    def test_interval_detection(self):
        table = make_table()
        table.apply(StagedWrite(inserts=columns_of([(1,)])), HlcTimestamp(10))
        v1 = table.current_version
        table.recluster(HlcTimestamp(20))
        table.recluster(HlcTimestamp(30))
        assert is_data_equivalent_interval(table, v1, table.current_version)
        table.apply(StagedWrite(inserts=columns_of([(2,)])), HlcTimestamp(40))
        assert not is_data_equivalent_interval(table, v1,
                                               table.current_version)


class TestMultiVersionIntervals:
    def test_net_changes_across_many_versions(self):
        table = make_table()
        v0 = table.current_version
        table.apply(StagedWrite(inserts=columns_of([(1,), (2,)])),
                    HlcTimestamp(10))
        table.apply(StagedWrite(updates={"b1:0": (10,)}), HlcTimestamp(20))
        table.apply(StagedWrite(deletes={"b1:1"}), HlcTimestamp(30))
        table.apply(StagedWrite(inserts=columns_of([(3,)])), HlcTimestamp(40))
        changes = changes_between(table, v0, table.current_version)
        inserted = sorted(c.row for c in inserts(changes))
        assert inserted == [(3,), (10,)]
        assert not deletes(changes)  # rows 1 and 2 never existed at v0

    def test_untouched_nan_row_cancels_across_a_rewrite(self):
        # Rows are compared one column at a time, identical-or-equal per
        # value as tuple comparison has it: the NaN row an UPDATE of its
        # neighbour merely copied is not a change.
        table = make_table()
        table.apply(StagedWrite(inserts=columns_of([(float("nan"),), (1.0,)])),
                    HlcTimestamp(10))
        v1 = table.current_version
        table.apply(StagedWrite(updates={"b1:1": (2.0,)}), HlcTimestamp(20))
        changes = changes_between(table, v1, table.current_version)
        assert [(c.action, c.row_id, c.row) for c in changes] == [
            (Action.DELETE, "b1:1", (1.0,)), (Action.INSERT, "b1:1", (2.0,))]

    def test_change_query_is_shared_and_bounded(self):
        from repro.streams.changes import CHANGE_QUERY_MEMO

        table = make_table()
        versions = [table.current_version]
        for wall in range(10, 10 + 10 * (CHANGE_QUERY_MEMO + 3), 10):
            versions.append(table.apply(
                StagedWrite(inserts=columns_of([(wall,)])),
                HlcTimestamp(wall)))
        first = changes_between(table, versions[0], versions[1])
        assert changes_between(table, versions[0], versions[1]) is first
        for old, new in zip(versions[1:], versions[2:]):
            changes_between(table, old, new)
        assert len(table.change_queries) == CHANGE_QUERY_MEMO
        again = changes_between(table, versions[0], versions[1])
        assert again is not first and list(again) == list(first)

    def test_changes_validate(self):
        table = make_table()
        table.apply(StagedWrite(inserts=columns_of([(i,) for i in range(5)])),
                    HlcTimestamp(10))
        v1 = table.current_version
        table.apply(StagedWrite(deletes={"b1:0", "b1:4"},
                                updates={"b1:2": (99,)}), HlcTimestamp(20))
        changes = changes_between(table, v1, table.current_version)
        changes.validate(dict(table.relation(v1).pairs()))
