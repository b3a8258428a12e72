"""Tests for micro-partitioned versioned tables."""

import pytest

from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.errors import ChangeIntegrityError, InternalError, VersionNotFound
from repro.storage.table import StagedWrite, VersionedTable
from repro.txn.hlc import HlcTimestamp

from deltas import changeset, columns_of


def make_table(partition_rows=4):
    schema = schema_of(("a", SqlType.INT), ("b", SqlType.TEXT))
    return VersionedTable("t", schema, table_seq=1,
                          partition_rows=partition_rows)


def insert(table, rows, wall):
    return table.apply(StagedWrite(inserts=columns_of(rows)),
                       HlcTimestamp(wall))


class TestInserts:
    def test_insert_creates_version(self):
        table = make_table()
        version = insert(table, [(1, "x")], wall=10)
        assert version.index == 1
        assert table.row_count() == 1

    def test_row_ids_are_stable_and_prefixed(self):
        table = make_table()
        insert(table, [(1, "x"), (2, "y")], wall=10)
        ids = table.relation().row_ids
        assert ids == ["b1:0", "b1:1"]

    def test_partition_chunking(self):
        table = make_table(partition_rows=2)
        insert(table, [(i, "x") for i in range(5)], wall=10)
        assert table.partition_count() == 3

    def test_commit_must_be_monotonic(self):
        table = make_table()
        insert(table, [(1, "x")], wall=10)
        with pytest.raises(InternalError):
            insert(table, [(2, "y")], wall=5)


class TestDeletesAndUpdates:
    def test_delete_rewrites_partition(self):
        table = make_table(partition_rows=10)
        insert(table, [(1, "x"), (2, "y")], wall=10)
        table.apply(StagedWrite(deletes={"b1:0"}), HlcTimestamp(20))
        relation = table.relation()
        assert relation.rows == [(2, "y")]
        assert relation.row_ids == ["b1:1"]  # survivor keeps its id

    def test_delete_missing_row_rejected(self):
        table = make_table()
        insert(table, [(1, "x")], wall=10)
        with pytest.raises(ChangeIntegrityError):
            table.apply(StagedWrite(deletes={"b1:99"}), HlcTimestamp(20))

    def test_update_keeps_identity(self):
        table = make_table()
        insert(table, [(1, "x")], wall=10)
        table.apply(StagedWrite(updates={"b1:0": (1, "z")}), HlcTimestamp(20))
        relation = table.relation()
        assert relation.rows == [(1, "z")]
        assert relation.row_ids == ["b1:0"]

    def test_touched_partitions_rewritten_in_partition_order(self):
        # The new partitions' ids — and with them the scan order — follow
        # the touched partitions' ids, not the iteration order of the
        # ``deletes`` set.
        table = make_table(partition_rows=2)
        insert(table, [(i, "x") for i in range(8)], wall=10)
        table.apply(StagedWrite(deletes={"b1:6", "b1:0", "b1:4"},
                                updates={"b1:3": (3, "y")}),
                    HlcTimestamp(20))
        assert [row[0] for row in table.relation().rows] == [1, 2, 3, 5, 7]

    def test_overwrite_replaces_everything(self):
        table = make_table()
        insert(table, [(1, "x"), (2, "y")], wall=10)
        table.apply(StagedWrite(inserts=columns_of([(9, "z")]),
                                overwrite=True),
                    HlcTimestamp(20))
        assert table.relation().rows == [(9, "z")]


class TestBindRowWidth:
    """An insert block is checked before it is sliced into partitions: a
    block of the wrong width or with a short column (reachable only
    through the internal write API) raises before anything is installed
    instead of being NULL-padded or truncated."""

    def test_ragged_insert_raises_and_installs_nothing(self):
        table = make_table()
        insert(table, [(0, "z")], wall=5)
        with pytest.raises(InternalError, match="2 columns wide"):
            table.apply(StagedWrite(inserts=[[1, 2], ["a"]]),
                        HlcTimestamp(10))
        assert table.version_count == 2
        assert table.relation().rows == [(0, "z")]
        # Nothing was consumed either: the next insert gets the next id.
        insert(table, [(3, "c")], wall=20)
        assert table.relation().row_ids == ["b1:0", "b1:1"]

    def test_uniformly_wrong_width_raises(self):
        table = make_table()
        with pytest.raises(InternalError, match="2 columns wide"):
            insert(table, [(1,), (2,)], wall=10)
        with pytest.raises(InternalError, match="2 columns wide"):
            table.apply(StagedWrite(inserts=columns_of([(1, "a", "extra")]),
                                    overwrite=True), HlcTimestamp(10))
        assert table.version_count == 1

    def test_ragged_update_raises_and_installs_nothing(self):
        table = make_table()
        insert(table, [(1, "x")], wall=10)
        with pytest.raises(InternalError, match="2 columns wide"):
            table.apply(StagedWrite(updates={"b1:0": (1,)}),
                        HlcTimestamp(20))
        assert table.relation().rows == [(1, "x")]


class TestTimeTravel:
    def test_version_at_resolves_largest_leq(self):
        table = make_table()
        insert(table, [(1, "x")], wall=10)
        insert(table, [(2, "y")], wall=30)
        assert table.version_at(10).index == 1
        assert table.version_at(29).index == 1
        assert table.version_at(30).index == 2
        assert table.version_at(99).index == 2

    def test_version_zero_is_empty(self):
        table = make_table()
        insert(table, [(1, "x")], wall=10)
        assert table.row_count(table.version_at(5)) == 0

    def test_relation_cached_per_version(self):
        table = make_table()
        version = insert(table, [(1, "x")], wall=10)
        assert table.relation(version) is table.relation(version)

    def test_old_versions_stay_readable(self):
        table = make_table()
        v1 = insert(table, [(1, "x")], wall=10)
        table.apply(StagedWrite(deletes={"b1:0"}), HlcTimestamp(20))
        assert table.relation(v1).rows == [(1, "x")]
        assert table.relation().rows == []


class TestRefreshMapping:
    def test_exact_lookup(self):
        table = make_table()
        version = insert(table, [(1, "x")], wall=10)
        table.register_refresh(1000, version)
        assert table.version_for_refresh(1000) is version

    def test_missing_refresh_fails(self):
        table = make_table()
        with pytest.raises(VersionNotFound):
            table.version_for_refresh(1234)

    def test_refresh_timestamps_sorted(self):
        table = make_table()
        version = insert(table, [(1, "x")], wall=10)
        table.register_refresh(300, version)
        table.register_refresh(100, version)
        assert table.refresh_timestamps() == [100, 300]


class TestChangesets:
    def test_apply_changeset(self):
        table = make_table()
        insert(table, [(1, "x"), (2, "y")], wall=10)
        changes = changeset(("-", "b1:0", (1, "x")), ("+", "g:abc", (7, "q")))
        table.apply(StagedWrite(changeset=changes), HlcTimestamp(20))
        pairs = dict(table.relation().pairs())
        assert pairs == {"b1:1": (2, "y"), "g:abc": (7, "q")}

    def test_changeset_validates_against_locator(self):
        table = make_table()
        insert(table, [(1, "x")], wall=10)
        bad = changeset(("-", "nope", (0, "")))
        with pytest.raises(ChangeIntegrityError):
            table.apply(StagedWrite(changeset=bad), HlcTimestamp(20))

    def test_duplicate_insert_rejected(self):
        table = make_table()
        insert(table, [(1, "x")], wall=10)
        bad = changeset(("+", "b1:0", (9, "z")))  # already present, no delete
        with pytest.raises(ChangeIntegrityError):
            table.apply(StagedWrite(changeset=bad), HlcTimestamp(20))

    def test_update_via_changeset(self):
        table = make_table()
        insert(table, [(1, "x")], wall=10)
        changes = changeset(("-", "b1:0", (1, "x")), ("+", "b1:0", (1, "z")))
        table.apply(StagedWrite(changeset=changes), HlcTimestamp(20))
        assert table.relation().rows == [(1, "z")]


class TestRecluster:
    def test_recluster_preserves_contents(self):
        table = make_table(partition_rows=2)
        insert(table, [(i, "x") for i in range(5)], wall=10)
        before = sorted(table.relation().pairs())
        table.recluster(HlcTimestamp(20))
        after = sorted(table.relation().pairs())
        assert before == after

    def test_recluster_flagged_data_equivalent(self):
        table = make_table()
        insert(table, [(1, "x")], wall=10)
        version = table.recluster(HlcTimestamp(20))
        assert version.data_equivalent
        assert not table.versions[1].data_equivalent
