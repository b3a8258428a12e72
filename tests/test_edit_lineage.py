"""Change queries that read only what was edited.

A copy-on-write rewrite records its parent partition and the row ids it
deleted or assigned (``Partition.lineage``); ``changes_between`` then
signs only those rows of a removed partition and of its one rewritten
descendant. The rows it skips are the ones consolidation would cancel, so
the answer must be exactly what signing every removed and added
partition whole and consolidating gives — same actions, ids, value
objects and order — and what consolidation is fed must follow the edits,
not the partition size.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.ivm.changes import Action, Change, ChangeSet, consolidate
from repro.storage.partition import Lineage, Partition
from repro.storage.table import StagedWrite, TableVersion, VersionedTable
from repro.streams import changes as streams
from repro.streams.changes import (changes_between, edited_ids,
                                   is_data_equivalent_interval)
from repro.txn.hlc import HlcTimestamp

from deltas import columns_of

SCHEMA = schema_of(("k", SqlType.INT), ("x", SqlType.FLOAT),
                   ("s", SqlType.TEXT))
NAN = float("nan")


def whole_partition_diff(table: VersionedTable, old: TableVersion,
                         new: TableVersion) -> ChangeSet:
    """The oracle: every removed and every added partition signed whole,
    in partition order, then consolidated."""
    if old.index == new.index or is_data_equivalent_interval(table, old,
                                                             new):
        return ChangeSet()

    def whole(action: Action, partition_ids) -> list[ChangeSet]:
        return [ChangeSet.signed(action, partition.row_ids,
                                 partition.columns)
                for partition in map(table.partition, sorted(partition_ids))]

    return consolidate(ChangeSet.concat(
        whole(Action.DELETE, old.partition_ids - new.partition_ids)
        + whole(Action.INSERT, new.partition_ids - old.partition_ids)))


def assert_identical(got: ChangeSet, want: ChangeSet) -> None:
    """Same actions and ids in order, and the very same value objects in
    every column (an empty set need not record a width)."""
    assert list(got.actions) == list(want.actions)
    assert list(got.row_ids) == list(want.row_ids)
    if want:
        assert len(got.columns) == len(want.columns)
        for mine, theirs in zip(got.columns, want.columns):
            assert len(mine) == len(theirs)
            assert all(a is b for a, b in zip(mine, theirs))


def assert_every_interval(table: VersionedTable) -> None:
    versions = table.versions
    for position, old in enumerate(versions):
        for new in versions[position:]:
            assert_identical(changes_between(table, old, new),
                             whole_partition_diff(table, old, new))


class _Clock:
    def __init__(self) -> None:
        self.wall = 0

    def __call__(self) -> HlcTimestamp:
        self.wall += 10
        return HlcTimestamp(self.wall)


def _row(rng: random.Random) -> tuple:
    return (rng.randrange(5), rng.choice([NAN, 0.5, 1.0, 2.0, None]),
            rng.choice(["a", "b", None]))


def _edit(rng: random.Random, row: tuple) -> tuple:
    """A new value for ``row``: the same values, a NaN in place, or a
    fresh row."""
    pick = rng.random()
    if pick < 0.3:
        return tuple(row)  # same value objects: the edit cancels
    if pick < 0.5:
        return (row[0], NAN, row[2])
    return _row(rng)


def _restored(table: VersionedTable) -> VersionedTable:
    """``table`` through a checkpoint round trip: fresh partitions, no
    lineage."""
    partitions = {partition_id: Partition.from_columns(
                      table.partition(partition_id).row_ids,
                      table.partition(partition_id).columns)
                  for partition_id in sorted(table.snapshot_state()
                                             ["partition_ids"])}
    return VersionedTable.from_snapshot(table.snapshot_state(), partitions)


OPS = ("insert", "update", "delete", "dml", "merge", "merge_back",
       "recluster", "overwrite", "clone", "restore")


def _run(table: VersionedTable, op: str, rng: random.Random, clock: _Clock,
         fresh: list) -> VersionedTable:
    """Apply one random operation; returns the table later operations
    act on (a clone or a restore replaces it)."""
    rows = table.rows_by_id()
    ids = sorted(rows)
    some = (lambda most: rng.sample(ids, min(len(ids),
                                             rng.randint(1, most))))
    if op == "insert" or not ids:
        table.apply(StagedWrite(inserts=columns_of(
                        [_row(rng) for __ in range(rng.randint(1, 12))])),
                    clock())
    elif op == "update":
        table.apply(StagedWrite(updates={row_id: _edit(rng, rows[row_id])
                                         for row_id in some(4)}), clock())
    elif op == "delete":
        table.apply(StagedWrite(deletes=set(some(3))), clock())
    elif op == "dml":  # deletes, updates (some of deleted rows) and inserts
        table.apply(StagedWrite(
            deletes=set(some(2)),
            updates={row_id: _edit(rng, rows[row_id]) for row_id in some(3)},
            inserts=columns_of([_row(rng)])), clock())
    elif op == "merge":
        # A refresh merge: delete some rows, re-insert some of them under
        # the same id (same or new values), insert fresh ids.
        deleted = some(4)
        changes = [Change(Action.DELETE, row_id, rows[row_id])
                   for row_id in deleted]
        changes += [Change(Action.INSERT, row_id, _edit(rng, rows[row_id]))
                    for row_id in deleted if rng.random() < 0.6]
        for __ in range(rng.randint(0, 3)):
            fresh[0] += 1
            changes.append(Change(Action.INSERT, f"m:{fresh[0]}", _row(rng)))
        table.apply(StagedWrite(changeset=ChangeSet(changes)), clock())
    elif op == "merge_back":
        # Update a row in one merge and back in the next: the pair spans
        # two insert partitions no lineage links.
        row_id = rng.choice(ids)
        row, edited = rows[row_id], _row(rng)
        for before, after in ((row, edited), (edited, row)):
            table.apply(StagedWrite(changeset=ChangeSet([
                Change(Action.DELETE, row_id, before),
                Change(Action.INSERT, row_id, after)])), clock())
    elif op == "recluster":
        table.recluster(clock())
    elif op == "overwrite":
        table.apply(StagedWrite(inserts=columns_of(
                        [_row(rng) for __ in range(rng.randint(0, 6))]),
                                overwrite=True), clock())
    elif op == "clone":
        return table.clone(f"c{clock.wall}", 2 + clock.wall, clock())
    else:
        return _restored(table)
    return table


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(partition_rows=st.integers(3, 8),
       ops=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2**32)),
                    min_size=1, max_size=14))
def test_lineage_diff_equals_whole_partition_diff(partition_rows, ops):
    clock, fresh = _Clock(), [0]
    table = VersionedTable("t", SCHEMA, 1, partition_rows=partition_rows)
    tables = [table]
    for op, seed in ops:
        table = _run(table, op, random.Random(seed), clock, fresh)
        if table is not tables[-1]:
            tables.append(table)
    for each in tables:
        assert_every_interval(each)


def _table(rows: int, partition_rows: int = 4096) -> VersionedTable:
    table = VersionedTable("t", SCHEMA, 1, partition_rows=partition_rows)
    table.apply(StagedWrite(inserts=columns_of(
                    [(i, float(i), "v") for i in range(rows)])),
                HlcTimestamp(10))
    return table


class TestLineageRecorded:
    def test_update_and_delete_record_parent_and_edited_ids(self):
        table = _table(8, partition_rows=8)
        (parent,) = table.partitions_of(table.current_version)
        table.apply(StagedWrite(deletes={"b1:1"},
                                updates={"b1:1": (0, 0.0, "x"),
                                         "b1:5": (0, 0.0, "x")}),
                    HlcTimestamp(20))
        (child,) = table.partitions_of(table.current_version)
        assert child.lineage.parent == parent.id
        # A deleted id that is also updated is recorded once.
        assert sorted(child.lineage.edited_ids) == ["b1:1", "b1:5"]

    def test_merge_records_its_deletes(self):
        table = _table(6, partition_rows=8)
        (parent,) = table.partitions_of(table.current_version)
        table.apply(StagedWrite(changeset=ChangeSet([
            Change(Action.DELETE, "b1:2", (2, 2.0, "v"))])),
            HlcTimestamp(20))
        (child,) = table.partitions_of(table.current_version)
        assert child.lineage == Lineage(parent.id, ("b1:2",))

    @pytest.mark.parametrize("edited, recorded", [(20, False),
                                                   (19, True)])
    def test_no_lineage_when_every_row_was_edited(self, edited, recorded):
        # With no row left untouched there is nothing to skip.
        table = _table(20, partition_rows=20)
        table.apply(StagedWrite(updates={f"b1:{i}": (9, 9.0, "z")
                                         for i in range(edited)}),
                    HlcTimestamp(20))
        (child,) = table.partitions_of(table.current_version)
        assert (child.lineage is not None) == recorded

    def test_a_rewrite_cut_in_several_partitions_records_none(self):
        # A partition larger than the table's partition size (written
        # before the size shrank) is cut when rewritten; its rows then go
        # to several children, so none of them may claim it.
        table = _table(8, partition_rows=8)
        old = table.current_version
        table.partition_rows = 4
        table.apply(StagedWrite(updates={"b1:1": (9, 9.0, "z")}),
                    HlcTimestamp(20))
        children = table.partitions_of(table.current_version)
        assert len(children) == 2
        assert all(child.lineage is None for child in children)
        # Deleting one child's rows outright must not leave the other as
        # the parent's sole claimant: the deletes of the first child's
        # rows would be lost.
        table.apply(StagedWrite(deletes=set(children[0].row_ids)),
                    HlcTimestamp(30))
        new = table.current_version
        assert_identical(changes_between(table, old, new),
                         whole_partition_diff(table, old, new))

    def test_inserts_recluster_and_overwrite_record_none(self):
        table = _table(6, partition_rows=4)
        table.recluster(HlcTimestamp(20))
        table.apply(StagedWrite(inserts=columns_of([(1, 1.0, "o")]),
                                overwrite=True),
                    HlcTimestamp(30))
        assert all(partition.lineage is None
                   for partition in table._partitions.values())

    def test_lineage_is_not_part_of_equality(self):
        plain = Partition(1, ("r",), ((1,),))
        assert plain == Partition(1, ("r",), ((1,),), (), Lineage(7, ("r",)))
        assert hash(plain) == hash(Partition(1, ("r",), ((1,),), (),
                                             Lineage(7, ("r",))))


class TestFallbacks:
    def test_clone_boundary(self):
        source = _table(12, partition_rows=4)
        source.apply(StagedWrite(updates={"b1:1": (0, NAN, "u")}),
                     HlcTimestamp(20))
        clone = source.clone("c", 2, HlcTimestamp(30))
        clone.apply(StagedWrite(updates={"b1:2": (0, 0.0, "u")},
                                deletes={"b1:9"}), HlcTimestamp(40))
        clone.apply(StagedWrite(inserts=columns_of([(5, 5.0, "n")])),
                    HlcTimestamp(50))
        # The shared partitions' lineage points into the source table.
        assert any(partition.lineage is not None
                   and partition.lineage.parent not in clone._partitions
                   for partition in clone._partitions.values())
        assert_every_interval(clone)
        assert_every_interval(source)

    def test_restored_table_reads_whole_partitions(self):
        table = _table(8, partition_rows=4)
        table.apply(StagedWrite(updates={"b1:1": (0, 0.0, "u")}),
                    HlcTimestamp(20))
        restored = _restored(table)
        assert all(partition.lineage is None
                   for partition in restored._partitions.values())
        restored.apply(StagedWrite(updates={"b1:6": (0, 0.0, "u")}),
                       HlcTimestamp(30))
        assert_every_interval(restored)
        # Across the restore point nothing is narrowed.
        v1, v2 = restored.version(1), restored.version(2)
        assert edited_ids(restored, v1.partition_ids - v2.partition_ids,
                          v2.partition_ids - v1.partition_ids) == {}
        # After it, the replayed write's lineage is used again.
        v3 = restored.current_version
        assert edited_ids(restored, v2.partition_ids - v3.partition_ids,
                          v3.partition_ids - v2.partition_ids) != {}

    def test_ancestor_claimed_by_two_partitions(self):
        table = _table(6, partition_rows=8)
        (parent,) = table.partitions_of(table.current_version)
        old = table.current_version
        # Hand-built: the parent's rows split in two, the first row of
        # each half updated (k = 9), both halves claiming the parent.
        k, x, label = parent.columns
        halves = [Partition.from_columns(
                      parent.row_ids[start:start + 3],
                      [(9,) + k[start + 1:start + 3], x[start:start + 3],
                       label[start:start + 3]],
                      lineage=Lineage(parent.id, (parent.row_ids[start],)))
                  for start in (0, 3)]
        new = table._install({parent.id}, halves, HlcTimestamp(20))
        removed = old.partition_ids - new.partition_ids
        added = new.partition_ids - old.partition_ids
        assert edited_ids(table, removed, added) == {}
        got = changes_between(table, old, new)
        assert_identical(got, whole_partition_diff(table, old, new))
        assert sorted(got.row_ids) == ["b1:0", "b1:0", "b1:3", "b1:3"]


class TestConsolidateInput:
    """What consolidation is fed, counted exactly."""

    @pytest.fixture
    def fed(self, monkeypatch) -> list[int]:
        sizes: list[int] = []

        def counted(changes: ChangeSet) -> ChangeSet:
            sizes.append(len(changes))
            return consolidate(changes)

        monkeypatch.setattr(streams, "consolidate", counted)
        return sizes

    def test_ten_row_update_of_a_full_partition_feeds_twenty_rows(self, fed):
        table = _table(4096)
        assert table.partition_count() == 1
        old = table.current_version
        table.apply(StagedWrite(updates={f"b1:{i * 400}": (i, -1.0, "u")
                                         for i in range(10)}),
                    HlcTimestamp(20))
        changes = changes_between(table, old, table.current_version)
        assert fed == [20]
        assert len(changes) == 20

    def test_update_then_delete_feeds_at_most_twice_the_edits(self, fed):
        table = _table(4096)
        old = table.current_version
        updated = {f"b1:{i}" for i in range(0, 4000, 250)}
        deleted = {f"b1:{i}" for i in range(7, 4000, 500)} | {"b1:250"}
        table.apply(StagedWrite(updates={row_id: (0, 0.0, "u")
                                         for row_id in updated}),
                    HlcTimestamp(20))
        table.apply(StagedWrite(deletes=deleted), HlcTimestamp(30))
        new = table.current_version
        assert_identical(changes_between(table, old, new),
                         whole_partition_diff(table, old, new))
        assert fed and fed[0] <= 2 * len(updated | deleted)

    def test_insert_only_interval_feeds_what_it_did(self, fed):
        table = _table(10, partition_rows=4)
        old = table.current_version
        table.apply(StagedWrite(inserts=columns_of([(1, 1.0, "n")] * 7)),
                    HlcTimestamp(20))
        changes_between(table, old, table.current_version)
        assert fed == [7]

    def test_recluster_interval_feeds_what_it_did(self, fed):
        table = _table(10, partition_rows=4)
        old = table.current_version
        table.apply(StagedWrite(updates={"b1:1": (0, 0.0, "u")}),
                    HlcTimestamp(20))
        table.recluster(HlcTimestamp(30))
        new = table.current_version
        changes_between(table, old, new)
        assert fed == [table.row_count(old) + table.row_count(new)]
