"""Row-shaped helpers for the deltas and writes tests build and inspect
by hand.

A :class:`~repro.ivm.changes.ChangeSet` is columnar; its one row-shaped
edge is construction from / iteration as ``Change`` triples. Staged
inserts are columnar too (``Transaction.insert_rows`` and
``StagedWrite(inserts=...)`` take a column block). These helpers are
those edges spelled the way tests want them.
"""

from repro.ivm.changes import Action, Change, ChangeSet


def columns_of(rows) -> list[list]:
    """The column block of some row tuples: one array per column."""
    return [list(column) for column in zip(*rows)]


def changeset(*ops) -> ChangeSet:
    """``changeset(("+", "id", (1,)), ("-", "id2", (2,)))``."""
    return ChangeSet(
        Change(Action.INSERT if sign == "+" else Action.DELETE, row_id, row)
        for sign, row_id, row in ops)


def inserts(changes: ChangeSet) -> list[Change]:
    return [change for change in changes if change.action is Action.INSERT]


def deletes(changes: ChangeSet) -> list[Change]:
    return [change for change in changes if change.action is Action.DELETE]


def delta_of(old_pairs, new_pairs) -> ChangeSet:
    """The delta turning ``old_pairs`` into ``new_pairs`` (``(row_id,
    row)`` pairs): vanished and changed rows in old order, a changed
    row's DELETE directly before its INSERT, then the new rows."""
    old, new = dict(old_pairs), dict(new_pairs)
    ops = []
    for row_id, row in old.items():
        if row_id not in new:
            ops.append(("-", row_id, row))
        elif new[row_id] != row:
            ops.append(("-", row_id, row))
            ops.append(("+", row_id, new[row_id]))
    ops.extend(("+", row_id, row) for row_id, row in new.items()
               if row_id not in old)
    return changeset(*ops)
