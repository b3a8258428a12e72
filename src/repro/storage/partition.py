"""Immutable micro-partitions with per-column zone maps.

Snowflake tables are stored as immutable micro-partitions; a table version
is a set of partitions, and every change is expressed as partitions added
and removed (copy-on-write). We reproduce that model because two behaviours
the paper discusses fall out of it naturally:

* **change queries** (the Streams substrate of [5], section 5.5): the
  changes between two versions are exactly the rows of the added
  partitions minus the rows of the removed partitions, with identical
  copied rows cancelling. Section 5.5.2 warns that "naively reading from
  added and removed partitions ... often causes read amplification": a
  10-row ``UPDATE`` rewrites a 4 096-row partition. So a rewrite records
  its :class:`Lineage` — parent id and edited row ids — and a change
  query reads only the edited rows of a partition and of its rewritten
  descendant (:mod:`repro.streams.changes`);
* **data-equivalent operations** (section 5.5.2): background reclustering
  rewrites partitions without changing logical contents; versions flagged
  data-equivalent are skipped by the differ.

Invariant: a partition is **column-major and nothing else** —
``row_ids`` is a tuple of stable identifiers and ``columns[i]`` is the
tuple of column ``i``'s values, parallel to it; there is no row view.
This is the on-disk shape Snowflake's micro-partition format presumes
(column chunks within an immutable file): scans hand whole column arrays
to the vectorized evaluators, change queries hand them to the delta by
reference, writes arrive as column arrays (:func:`build_partitions`) and
a DML rewrite keeps or replaces rows by index (:meth:`Partition.edited`),
so no path through storage builds a row tuple, and zone maps are a single
min/max pass over an already-materialized column array.

Each partition is stamped at creation with per-column **zone maps**
(min/max plus a value-kind tag), mirroring Snowflake's per-micro-partition
metadata. Scans with pushed-down column bounds use them to skip partitions
wholesale; the pruning is conservative — a partition is only skipped when
*no* row in it could satisfy the bounds under exact SQL semantics
(including NULL comparisons evaluating to NULL, and mixed-type columns
never being pruned so runtime type errors still surface). Zone maps are a
*bound*, not a summary: a rewrite that only drops rows (every refresh
merge, every ``DELETE``) keeps its parent's, which still cover any subset
of the parent's rows; a rewrite that assigns values recomputes them.

Because a partition never changes, anything derived from it stays valid
for as long as it exists. :meth:`Partition.key_index` is such a thing: the
row positions of each key over some columns, which the join and window
derivatives probe instead of keying a whole table endpoint. A partition's
lineage is fixed at creation the same way; it lives as long as the
partition does.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Container, Mapping, NamedTuple, Optional, Sequence

from repro.engine.types import group_key_columns

#: Global partition id allocator (ids only need to be unique per process).
_partition_ids = itertools.count(1)


@dataclass(frozen=True)
class ColumnStats:
    """Zone-map entry for one column of one partition.

    ``kind`` is ``"num"`` (all non-NULL values are int/float, no NaN),
    ``"str"`` (all non-NULL values are text), ``None`` (every value is
    NULL), or ``"other"`` (mixed or non-orderable values — never pruned).
    ``low``/``high`` are only meaningful for ``"num"`` and ``"str"``.
    """

    kind: Optional[str]
    low: object = None
    high: object = None
    has_null: bool = False


_NONE = type(None)
#: The Python types a zone map can order, by value kind. ``bool`` is not
#: among them (a subclass of ``int`` that must never be pruned as a
#: number), so a column holding one is ``"other"``, as is any column
#: holding a type outside this table.
_ORDERABLE = {frozenset({int}): "num", frozenset({float}): "num",
              frozenset({int, float}): "num", frozenset({str}): "str"}


def _column_stats(values: Sequence[object]) -> ColumnStats:
    """The zone map of one column array, with one type dispatch: the set
    of its values' types picks the kind, and ``min`` / ``max`` run at C
    level over the non-NULL values. A float column pays a NaN check
    (NaN is unordered, so its column is ``"other"``). ``has_null`` stays
    exact for every kind: the IS NULL pruning rule relies on it."""
    kinds = set(map(type, values))
    has_null = _NONE in kinds
    kinds.discard(_NONE)
    if not kinds:
        return ColumnStats(None, has_null=has_null)
    kind = _ORDERABLE.get(frozenset(kinds))
    if kind is None:
        return ColumnStats("other", has_null=has_null)
    present = ([value for value in values if value is not None]
               if has_null else values)
    if float in kinds and not all(map(operator.eq, present, present)):
        return ColumnStats("other", has_null=has_null)  # a NaN
    return ColumnStats(kind, min(present), max(present), has_null)


def zone_maps_of_columns(columns: Sequence[Sequence],
                         ) -> tuple[ColumnStats, ...]:
    """Per-column stats over already-materialized column arrays — the
    nearly-free columnar zone-map construction (one pass per array, no
    row-tuple indexing)."""
    return tuple(_column_stats(column) for column in columns)


def _range_allows(stats: ColumnStats, op: str, value: object) -> bool:
    """Whether any non-NULL value in [low, high] could satisfy
    ``col <op> value``. Callers must have established kind safety first."""
    if op == "=":
        return stats.low <= value <= stats.high
    if op == "<":
        return stats.low < value
    if op == "<=":
        return stats.low <= value
    if op == ">":
        return stats.high > value
    if op == ">=":
        return stats.high >= value
    if op in ("!=", "<>"):
        # Excludable only when every non-NULL value equals the literal.
        return not (stats.low == value == stats.high)
    return True


class Lineage(NamedTuple):
    """How a partition came from a copy-on-write rewrite of another: the
    ``parent`` partition's id, and the ids of the parent's rows the
    rewrite deleted or assigned (``edited_ids``, a tuple — the set is
    built only when a change query reads it). Every other row of the
    parent is in the child, holding the parent's own value objects."""

    parent: int
    edited_ids: tuple[str, ...]


@dataclass(frozen=True)
class Partition:
    """An immutable columnar bundle of rows with zone maps.

    ``columns[i][j]`` is column ``i`` of row ``j``; ``row_ids[j]`` is row
    ``j``'s stable identifier. ``lineage`` is set on a rewrite of another
    partition that left at least one of its rows untouched (see
    :class:`Lineage`); it is bookkeeping, not contents, so equality and
    hashing ignore it.
    """

    id: int
    row_ids: tuple[str, ...]
    columns: tuple[tuple, ...]
    zone_maps: tuple[ColumnStats, ...] = ()
    lineage: Optional[Lineage] = field(default=None, compare=False)

    @staticmethod
    def from_columns(row_ids: Sequence[str], columns: Sequence[Sequence],
                     zone_maps: Optional[tuple[ColumnStats, ...]] = None,
                     lineage: Optional[Lineage] = None,
                     ) -> "Partition":
        """Build from parallel column arrays. Zone maps are a min/max
        pass over each array unless the caller holds a sound bound for
        these rows already (see :meth:`edited`)."""
        cols = tuple(tuple(column) for column in columns)
        if zone_maps is None:
            zone_maps = zone_maps_of_columns(cols)
        return Partition(next(_partition_ids), tuple(row_ids), cols,
                         zone_maps, lineage)

    def __len__(self) -> int:
        return len(self.row_ids)

    def edited(self, deletes: Container[str],
               updates: Mapping[str, tuple],
               ) -> tuple[list[str], list[list],
                          Optional[tuple[ColumnStats, ...]]]:
        """The ``(row_ids, columns, zone_maps)`` this partition becomes
        once the rows named in ``updates`` take their new values and the
        rows named in ``deletes`` are dropped — by index over copies of
        the column arrays (a deleted id wins over an update of it). Ids
        naming no row of this partition are ignored.

        ``zone_maps`` is this partition's own when no row took a new
        value: every kind, min/max and NULL flag of a set of rows bounds
        any subset of it, so pruning on them stays sound. It is None when
        a value was assigned — the new values may lie outside them."""
        row_ids = self.row_ids
        columns: Sequence[Sequence] = self.columns
        hits = ([index for index, row_id in enumerate(row_ids)
                 if row_id in updates] if updates else ())
        if hits:
            columns = [list(column) for column in columns]
            for index in hits:
                for column, value in zip(columns, updates[row_ids[index]]):
                    column[index] = value
        keep = [row_id not in deletes for row_id in row_ids]
        return (list(itertools.compress(row_ids, keep)),
                [list(itertools.compress(column, keep))
                 for column in columns],
                None if hits else self.zone_maps)

    def group_keys(self, positions: Sequence[int]) -> list[tuple]:
        """Each row's key over the columns at ``positions``: a
        :func:`~repro.engine.types.group_key_columns` key — NULL-safe, 3
        and 3.0 alike — as the derivative rules compute over a delta."""
        return group_key_columns([self.columns[position]
                                  for position in positions], len(self))

    def key_index(self, positions: Sequence[int]) -> dict[tuple, list[int]]:
        """Row positions by :meth:`group_keys` key, ascending per key."""
        index: dict[tuple, list[int]] = {}
        for row, key in enumerate(self.group_keys(positions)):
            rows = index.get(key)
            if rows is None:
                index[key] = [row]
            else:
                rows.append(row)
        return index

    def might_match(self, bounds: Sequence[tuple]) -> bool:
        """Whether this partition could contain a row satisfying the
        conjunction of scan bounds (see
        :func:`repro.engine.executor.extract_scan_bounds`). False means
        the partition can be skipped.

        Soundness: the partition is only skipped when, for every row, the
        full predicate provably evaluates to FALSE or NULL *without
        raising*. Each ``("cmp", ...)`` bound therefore first checks kind
        safety — a column whose values are mixed-kind, boolean, NaN, or of
        a different kind than the literal could make ``t.compare`` raise,
        so such a partition is never skipped (returns True immediately).
        """
        zone_maps = self.zone_maps
        excluded = False
        for bound in bounds:
            if bound[0] == "cmp":
                __, index, op, value = bound
                if index >= len(zone_maps):
                    return True  # ragged row shape: cannot reason
                stats = zone_maps[index]
                if stats.kind is None:
                    # All NULL: the comparison is NULL on every row —
                    # never raises, never selects.
                    excluded = True
                    continue
                value_kind = ("num" if isinstance(value, (int, float))
                              and not isinstance(value, bool) else "str")
                if stats.kind != value_kind:
                    # Mixed/boolean column or kind mismatch: evaluating
                    # this conjunct could raise; keep the partition.
                    return True
                if not _range_allows(stats, op, value):
                    excluded = True
            else:  # ("null", index, negated) — IS [NOT] NULL never raises
                __, index, negated = bound
                if index >= len(zone_maps):
                    return True
                stats = zone_maps[index]
                if not negated:
                    if not stats.has_null:
                        excluded = True  # no NULLs: IS NULL false per row
                elif stats.kind is None:
                    excluded = True  # all NULL: IS NOT NULL false per row
        return not excluded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Partition(id={self.id}, rows={len(self.row_ids)})"


def build_partitions(row_ids: Sequence[str], columns: Sequence[Sequence],
                     max_rows: int,
                     zone_maps: Optional[tuple[ColumnStats, ...]] = None,
                     lineage: Optional[Lineage] = None,
                     ) -> list[Partition]:
    """Chunk a columnar block into partitions of at most ``max_rows``
    rows: each partition is one slice of every column array. ``zone_maps``
    (a bound over the whole block) is shared by every chunk; without it
    each chunk computes its own. ``lineage`` is recorded only when the
    block fits in one partition: a lineage claims that every unedited row
    of the parent is in its one child, which a cut block breaks."""
    if len(row_ids) > max_rows:
        lineage = None
    return [Partition.from_columns(
                row_ids[start:start + max_rows],
                [column[start:start + max_rows] for column in columns],
                zone_maps, lineage)
            for start in range(0, len(row_ids), max_rows)]
