"""Change queries over versioned tables (the "Streams" substrate).

Dynamic Tables reuses Snowflake's change-query framework ([5] in the
paper, "What's the Difference? Incremental Processing with Change Queries
in Snowflake"). The primitive is: given two versions of a table, produce
the row-level changes between them.

With copy-on-write micro-partitions this is a set difference on partition
ids: rows of partitions present only in the *old* version are deletions,
rows of partitions present only in the *new* version are insertions, and
data-equivalent versions (reclustering) contribute nothing by
construction, reproducing the "skip data-equivalent operations"
optimization.

Section 5.5.2's read amplification is avoided before anything is read. A
rewritten partition remembers its parent and the row ids the rewrite
edited (:class:`~repro.storage.partition.Lineage`). When exactly one
added partition descends from a removed one, only the rows edited along
that lineage are signed: the ancestor's as deletions, the descendant's
as insertions. The rows no rewrite touched hold the ancestor's own value
objects, so they would cancel anyway. Every other partition is signed
whole — inserts, reclusters, overwrites, a restored checkpoint (lineage
is not persisted), a clone's boundary.

:func:`~repro.ivm.changes.consolidate` still runs over what is read, and
has to: it cancels the rows an edit left equal (an ``UPDATE`` to the same
value), and a row a refresh merge updated and the next merge updated
back. Each merge put that row in a fresh insert partition, so its
identical delete/insert pair spans two partitions no lineage links.
The memo of recent change queries stays as well: dynamic tables that
read one source over one interval share one delta instead of each
re-reading (and re-consolidating) it.
"""

from __future__ import annotations

from itertools import compress
from typing import AbstractSet, Collection, Optional

from repro.ivm.changes import Action, ChangeSet, consolidate
from repro.storage.partition import Partition
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
    ever read — shared partitions are never materialized — and of a
    removed partition with one rewritten descendant, only the rows edited
    in between (:func:`edited_ids`). An interval consisting entirely of
    data-equivalent versions (reclustering) is skipped wholesale without
    touching any partition at all: its copied rows would all cancel in
    consolidation anyway, so the answer is known to be empty from version
    metadata alone (section 5.5.2).
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
    edited = edited_ids(table, removed_ids, added_ids)

    def signed(action: Action, partition_ids) -> list[ChangeSet]:
        return [_signed(action, partition, edited.get(partition.id))
                for partition in map(table.partition, sorted(partition_ids))]

    changes = consolidate(ChangeSet.concat(signed(Action.DELETE, removed_ids)
                                           + signed(Action.INSERT, added_ids)))
    memo[old.index, new.index] = changes
    while len(memo) > CHANGE_QUERY_MEMO:
        memo.popitem(last=False)
    return changes


def edited_ids(table: VersionedTable, removed_ids: AbstractSet[int],
               added_ids: Collection[int]) -> dict[int, set[str]]:
    """Partition id -> the ids of the rows edited between a removed
    partition and its one added descendant, for both of them.

    Each added partition's lineage is walked back to the first ancestor
    in ``removed_ids``, uniting each hop's edited ids on the way. Parents
    are older than their children, so a walk ends below the oldest
    removed id; it also ends at a partition with no lineage, or at one
    this table does not hold (a clone's boundary). An ancestor that more
    than one added partition claims is left out: its rows went to more
    than one place, so it and its claimants are read whole."""
    if not removed_ids:
        return {}
    oldest = min(removed_ids)
    claims: dict[int, list[tuple[int, list[tuple[str, ...]]]]] = {}
    for partition_id in added_ids:
        lineage = table.partition(partition_id).lineage
        hops: list[tuple[str, ...]] = []
        while lineage is not None and lineage.parent >= oldest:
            hops.append(lineage.edited_ids)
            if lineage.parent in removed_ids:
                claims.setdefault(lineage.parent, []).append(
                    (partition_id, hops))
                break
            try:
                lineage = table.partition(lineage.parent).lineage
            except KeyError:  # the parent belongs to a clone's source
                break
    edited: dict[int, set[str]] = {}
    for ancestor, claimants in claims.items():
        if len(claimants) == 1:
            descendant, hops = claimants[0]
            edited[ancestor] = edited[descendant] = set().union(*hops)
    return edited


def _signed(action: Action, partition: Partition,
            ids: Optional[AbstractSet[str]]) -> ChangeSet:
    """``partition`` under one sign: whole when ``ids`` is None, else
    only its rows whose id is in ``ids``.

    A whole partition's column tuples are adopted by reference;
    consolidation then works on row indices, so no partition is ever
    transposed (or pinned in a second layout) to be diffed. A narrowed
    one keeps partition order, so dropping only rows that would cancel
    leaves the consolidated result — rows, ids, order — exactly as
    signing them would. Membership is one C-level pass over the row ids;
    the hits are then gathered by index from each column."""
    if ids is None:
        return ChangeSet.signed(action, partition.row_ids, partition.columns)
    row_ids = partition.row_ids
    hits = list(compress(range(len(row_ids)),
                         map(ids.__contains__, row_ids)))
    return ChangeSet.signed(
        action, list(map(row_ids.__getitem__, hits)),
        [list(map(column.__getitem__, hits))
         for column in partition.columns])


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
