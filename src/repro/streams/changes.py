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

from repro.ivm.changes import Action, ChangeSet, consolidate
from repro.storage.table import TableVersion, VersionedTable

#: How many change queries a table remembers. Versions are immutable and
#: a delta is never mutated, so every dynamic table that reads one source
#: over the same interval — the usual case within a scheduler tick —
#: shares one consolidated delta instead of each diffing the partitions
#: again.
CHANGE_QUERY_MEMO = 4


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

    memo = table.change_queries
    changes = memo.get((old.index, new.index))
    if changes is not None:
        return changes

    removed_ids = old.partition_ids - new.partition_ids
    added_ids = new.partition_ids - old.partition_ids

    # Each partition enters the delta whole, under one sign, its column
    # tuples adopted by reference; consolidation then works on row
    # indices, so no partition is ever transposed (or pinned in a second
    # layout) to be diffed.
    def signed(action: Action, partition_ids) -> list[ChangeSet]:
        return [ChangeSet.signed(action, partition.row_ids,
                                 partition.columns)
                for partition in map(table.partition, sorted(partition_ids))]

    changes = consolidate(ChangeSet.concat(signed(Action.DELETE, removed_ids)
                                           + signed(Action.INSERT, added_ids)))
    memo[old.index, new.index] = changes
    while len(memo) > CHANGE_QUERY_MEMO:
        memo.popitem(last=False)
    return changes


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
