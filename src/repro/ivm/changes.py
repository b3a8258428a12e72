"""Change sets: the ``$ACTION`` / ``$ROW_ID`` delta representation.

Section 5.5 of the paper: a differentiated query Δ_I Q "outputs the changes
in that query over a data timestamp interval I. These changes are a set of
rows with the same columns as Q, plus 2 additional metadata columns. The
$ACTION column indicates whether a row represents an insertion or a
deletion in the DT. Updates are represented as both actions for the same
row. The $ROW_ID column provides the identifier of the row to be modified.
The differentiation framework guarantees that a set of changes never
contains more than 1 row for each unique $ROW_ID, $ACTION pair, which
ensures that the merge operation is well-defined."

Invariant: a :class:`ChangeSet` **is** that relation — a signed columnar
relation. ``columns[c][i]`` is column ``c`` of change ``i``, and
``actions[i]`` / ``row_ids[i]`` are its two metadata columns; every array
is parallel and read-only once the set is built. This is the layout of a
micro-partition and of a :class:`~repro.engine.relation.Relation`, so a
partition's column arrays enter a delta by reference
(:meth:`ChangeSet.signed`), the derivative rules apply the executor's
kernels to ``columns`` directly, and storage slices ``columns`` straight
back into partitions — nothing between a partition and the next partition
builds a row tuple. The one row-shaped edge is :class:`Change`: a set can
be constructed from, and iterated as, ``(action, row_id, row)`` triples
(hand-built deltas, accumulator outputs, ``repr``).

:func:`consolidate` implements the change-consolidation step referenced in
section 5.5.2 (and the insert-only specialization that allows skipping it);
:meth:`ChangeSet.validate` implements the two production invariants of
section 6.1 that "shielded customers from data corruption".
"""

from __future__ import annotations

import enum
from itertools import compress, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


from repro.errors import ChangeIntegrityError


class Action(enum.Enum):
    """The ``$ACTION`` metadata column."""

    INSERT = "insert"
    DELETE = "delete"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Change(NamedTuple):
    """One delta row: ``($ACTION, $ROW_ID, values...)`` — the row-shaped
    edge of a :class:`ChangeSet` (construction and iteration only)."""

    action: Action
    row_id: str
    row: tuple

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sign = "+" if self.action == Action.INSERT else "-"
        return f"{sign}{self.row_id}{self.row!r}"


class ChangeSet:
    """An ordered bag of changes, stored as a signed columnar relation.

    ``actions[i]`` / ``row_ids[i]`` / ``columns[c][i]`` describe change
    ``i``. Order matters only *before* consolidation (an insert and a
    delete of the same row id cancel in sequence order); a consolidated
    change set is a well-defined merge: at most one row per
    ``($ROW_ID, $ACTION)`` pair.

    A set is built once and never mutated, so adopted arrays (partition
    column tuples, kernel outputs) are shared, not copied. An *empty* set
    may carry no column arrays at all — it has no width to record — so
    consumers test emptiness before reading ``columns``.
    """

    __slots__ = ("actions", "row_ids", "columns")

    def __init__(self, changes: Iterable[Change] = ()):
        """Build from :class:`Change` triples (the row-shaped edge)."""
        actions: list[Action] = []
        row_ids: list[str] = []
        rows: list[tuple] = []
        for action, row_id, row in changes:
            actions.append(action)
            row_ids.append(row_id)
            rows.append(row)
        self.actions: Sequence[Action] = actions
        self.row_ids: Sequence[str] = row_ids
        self.columns: Sequence[Sequence] = list(zip(*rows, strict=True))

    @staticmethod
    def from_columns(actions: Sequence[Action], row_ids: Sequence[str],
                     columns: Sequence[Sequence]) -> "ChangeSet":
        """Adopt parallel arrays by reference (no copy)."""
        changes = ChangeSet.__new__(ChangeSet)
        changes.actions = actions
        changes.row_ids = row_ids
        changes.columns = columns
        return changes

    @staticmethod
    def signed(action: Action, row_ids: Sequence[str],
               columns: Sequence[Sequence]) -> "ChangeSet":
        """A whole relation (``row_ids`` + ``columns``, adopted by
        reference) under one sign — how a partition, an executor result
        or a join output becomes a delta."""
        return ChangeSet.from_columns([action] * len(row_ids), row_ids,
                                      columns)

    @staticmethod
    def concat(parts: Iterable["ChangeSet"]) -> "ChangeSet":
        """The parts' changes in sequence — one array extension per
        column per part. Empty parts are skipped (they carry no width)."""
        parts = [part for part in parts if part]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return ChangeSet()
        actions: list[Action] = []
        row_ids: list[str] = []
        columns: list[list] = [[] for __ in parts[0].columns]
        for part in parts:
            actions.extend(part.actions)
            row_ids.extend(part.row_ids)
            for accumulator, column in zip(columns, part.columns,
                                           strict=True):
                accumulator.extend(column)
        return ChangeSet.from_columns(actions, row_ids, columns)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[Change]:
        """The changes as :class:`Change` triples (the row-shaped edge)."""
        rows = (zip(*self.columns) if self.columns
                else repeat((), len(self.actions)))
        return map(Change._make, zip(self.actions, self.row_ids, rows))

    def __bool__(self) -> bool:
        return bool(self.actions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChangeSet({list(self)!r})"

    # -- reads -----------------------------------------------------------------

    def under(self, which: Action) -> tuple[Sequence[str], Sequence[Sequence]]:
        """``(row_ids, columns)`` of the changes whose ``$ACTION`` is
        ``which``, in order — shared by reference when that is every
        change (the insert-only shape)."""
        actions = self.actions
        if actions.count(which) == len(actions):
            return self.row_ids, self.columns
        keep = [action is which for action in actions]
        return (list(compress(self.row_ids, keep)),
                [list(compress(column, keep)) for column in self.columns])

    @property
    def insert_only(self) -> bool:
        """True when the set contains no deletions — the extremely common
        workload shape that section 5.5.2 specializes for."""
        # ``in`` keeps the scan in C: enum equality is identity.
        return Action.DELETE not in self.actions

    def validate(self, existing_row_ids: Mapping[str, object] | None = None) -> None:
        """Check the section 6.1 incremental-refresh invariants.

        1. "there should never be more than 1 row with the same
           ``$ROW_ID, $ACTION`` pair";
        2. "we should never try to delete a row that does not exist" —
           checked against ``existing_row_ids`` when provided (the target
           table's current row ids). Inserting an id that already exists
           (and is not also deleted in this set) is the symmetric
           corruption and is rejected too.

        Raises :class:`~repro.errors.ChangeIntegrityError`.
        """
        delete = Action.DELETE
        inserted: set[str] = set()
        deleted: set[str] = set()
        for action, row_id in zip(self.actions, self.row_ids):
            seen = deleted if action is delete else inserted
            if row_id in seen:
                raise ChangeIntegrityError(
                    f"duplicate ($ROW_ID, $ACTION) pair: {(row_id, action)}")
            seen.add(row_id)
        if existing_row_ids is not None:
            for action, row_id in zip(self.actions, self.row_ids):
                exists = row_id in existing_row_ids
                if action is delete:
                    if not exists:
                        raise ChangeIntegrityError(
                            f"delete of nonexistent row: {row_id}")
                elif exists and row_id not in deleted:
                    raise ChangeIntegrityError(
                        f"insert of already-present row: {row_id}")


def rows_equal(columns: Sequence[Sequence], left_at: Sequence[int],
               right_at: Sequence[int]) -> list[bool]:
    """Whether rows ``left_at[k]`` and ``right_at[k]`` of ``columns`` are
    equal, for every ``k``.

    Compared one column at a time over the gathered values, with the
    semantics tuple comparison has: two values agree when they are
    identical *or* equal, so an untouched row carrying a NaN still equals
    its own copy. A column that agrees everywhere — every column of a
    copy-on-write rewrite but the updated ones — is settled by one list
    comparison without a per-pair step.
    """
    same = [True] * len(left_at)
    for column in columns:
        ours = [column[index] for index in left_at]
        theirs = [column[index] for index in right_at]
        if ours != theirs:
            same = [agree and (mine is other or mine == other)
                    for agree, mine, other in zip(same, ours, theirs)]
    return same


def consolidate(changes: ChangeSet) -> ChangeSet:
    """Collapse an ordered change sequence to its net effect.

    Per row id, in sequence order:

    * insert then delete cancels (the row came and went within the
      interval);
    * delete then insert of an identical row cancels (this is the
      read-amplification elimination of section 5.5.2: copy-on-write
      partition rewrites re-emit untouched rows, which must vanish from
      the delta);
    * delete then insert of a different row becomes an update (one DELETE
      of the old row and one INSERT of the new, same row id);
    * duplicate inserts (or duplicate deletes) of the same id raise
      :class:`~repro.errors.ChangeIntegrityError` — they indicate a bug in
      a derivative rule.

    The result satisfies :meth:`ChangeSet.validate`'s pair-uniqueness
    invariant by construction. Output order: deletes first, then inserts
    (the merge applies deletions before insertions), each in first-seen
    order of their row ids. Works on row *indices*: one pass over the two
    metadata columns, one column-at-a-time comparison of the rewritten
    rows (:func:`rows_equal`), and one gather per output column.
    """
    if changes.insert_only:
        # Nothing can cancel (the insert-only specialization of section
        # 5.5.2): only the pair-uniqueness check is left to do.
        changes.validate()
        return changes
    insert = Action.INSERT
    #: row id -> index of the pre-existing row this interval deleted.
    before: dict[str, int] = {}
    #: row id -> index of the row this interval inserted and kept.
    current: dict[str, int] = {}
    for index, (action, row_id) in enumerate(zip(changes.actions,
                                                 changes.row_ids)):
        if action is insert:
            if row_id in current:
                raise ChangeIntegrityError(
                    f"duplicate insert for row id {row_id}")
            current[row_id] = index
        elif row_id in current:
            # insert+delete within the interval cancels — as does the
            # re-insert in delete(old) insert(new) delete(new), which
            # stays a delete of old.
            del current[row_id]
        elif row_id in before:
            raise ChangeIntegrityError(
                f"duplicate delete for row id {row_id}")
        else:
            before[row_id] = index

    rewritten = [row_id for row_id in before if row_id in current]
    columns = changes.columns
    copied = set(compress(rewritten, rows_equal(
        columns, [before[row_id] for row_id in rewritten],
        [current[row_id] for row_id in rewritten])))

    order = dict.fromkeys(changes.row_ids)  # first-seen
    delete_ids = [row_id for row_id in order
                  if row_id in before and row_id not in copied]
    insert_ids = [row_id for row_id in order
                  if row_id in current and row_id not in copied]
    take = ([before[row_id] for row_id in delete_ids]
            + [current[row_id] for row_id in insert_ids])
    return ChangeSet.from_columns(
        [Action.DELETE] * len(delete_ids) + [insert] * len(insert_ids),
        delete_ids + insert_ids,
        [[column[index] for index in take] for column in columns])
