"""Change queries over versioned tables (the "Streams" substrate).

Dynamic Tables reuses Snowflake's change-query framework ([5] in the
paper, "What's the Difference? Incremental Processing with Change Queries
in Snowflake"). The primitive is: given two versions of a table, produce
the row-level changes between them.

With copy-on-write micro-partitions this is a set difference on partition
ids: rows of partitions present only in the *old* version are deletions,
rows of partitions present only in the *new* version are insertions.
Consolidation then cancels rows that were merely copied by partition
rewrites — the read-amplification elimination of section 5.5.2 — and
data-equivalent versions (reclustering) contribute nothing by
construction, reproducing the "skip data-equivalent operations"
optimization.
"""

from __future__ import annotations

from repro.ivm.changes import ChangeSet, consolidate
from repro.storage.table import TableVersion, VersionedTable
from repro.util.parallel import fanout_map


def changes_between(table: VersionedTable, old: TableVersion,
                    new: TableVersion) -> ChangeSet:
    """The consolidated row-level changes from ``old`` to ``new``.

    ``old`` must not be newer than ``new``. The result satisfies the
    ``($ROW_ID, $ACTION)`` uniqueness invariant, deletions precede
    insertions, and copied (identical) rows cancel.

    Only the *symmetric difference* of the two versions' partition sets is
    ever read — shared partitions are never materialized — and an interval
    consisting entirely of data-equivalent versions (reclustering) is
    skipped wholesale without touching any partition at all: its copied
    rows would all cancel in consolidation anyway, so the answer is known
    to be empty from version metadata alone (section 5.5.2).
    """
    if old.index > new.index:
        raise ValueError("changes_between requires old.index <= new.index")
    if old.index == new.index:
        return ChangeSet()
    if is_data_equivalent_interval(table, old, new):
        return ChangeSet()

    removed_ids = old.partition_ids - new.partition_ids
    added_ids = new.partition_ids - old.partition_ids

    # Struct-of-arrays delta building: each partition contributes its
    # whole row-id and row slices by array extension — no per-row
    # appends, no per-row Change allocation. The per-partition slice
    # materialization (the expensive part) fans out to the refresh's
    # partition pool when one is installed; slices come back in
    # sorted-partition-id order and are combined serially, so the
    # change set is byte-identical to the serial build.
    def slices(partition_id: int) -> tuple:
        partition = table.partition(partition_id)
        return partition.row_ids, partition.row_tuples

    raw = ChangeSet()
    for row_ids, rows in fanout_map("diff", slices, sorted(removed_ids)):
        raw.delete_many(row_ids, rows)
    for row_ids, rows in fanout_map("diff", slices, sorted(added_ids)):
        raw.insert_many(row_ids, rows)
    return consolidate(raw)


def changes_since(table: VersionedTable, old: TableVersion) -> ChangeSet:
    """Changes from ``old`` to the table's current version."""
    return changes_between(table, old, table.current_version)


def is_data_equivalent_interval(table: VersionedTable, old: TableVersion,
                                new: TableVersion) -> bool:
    """True when every version in ``(old, new]`` is flagged
    data-equivalent — the differ can skip reading any data at all
    (section 5.5.2's tractable carve-out of the NP-hard version-skipping
    problem: we skip only when the *entire* interval is data-equivalent)."""
    version = table.version
    return all(version(index).data_equivalent
               for index in range(old.index + 1, new.index + 1))
