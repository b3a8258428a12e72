"""Relations: schema + columnar row storage + stable row identifiers.

A :class:`Relation` is what flows from storage into the executor and the
differentiation framework. It is a **columnar block**: the canonical
layout is a list of parallel per-column value arrays plus a ``row_ids``
array carrying the stable per-row identifiers that incremental view
maintenance threads through every operator (section 5.5: "Incremental DTs
define a unique ID for every row in the query result, and store those IDs
alongside the data").

Row view
--------

``Relation(schema, rows, row_ids)`` still accepts row tuples: it
transposes them once, at construction, and the relation is columnar from
then on. ``rows``, ``pairs()`` and ``__iter__`` are views derived from
the columns on each call, for result delivery (``QueryResult``, cursor
buffers, ``rows_by_id``); no kernel reads them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Protocol, Sequence

from repro.engine.schema import Schema


class Relation:
    """An in-memory bag of rows with parallel row ids, stored column-major.

    ``columns[i]`` is column ``i``'s value array, parallel to
    ``row_ids``. Callers must treat both as read-only: kernels build new
    relations instead of editing one.
    """

    __slots__ = ("schema", "row_ids", "columns")

    def __init__(self, schema: Schema, rows: Optional[list] = None,
                 row_ids: Optional[list] = None):
        self.schema = schema
        rows = rows if rows is not None else []
        if row_ids is None:
            row_ids = []
        if row_ids and len(row_ids) != len(rows):
            raise ValueError("row_ids must parallel rows")
        if not row_ids and rows:
            # Positional fallback ids; storage always provides real ids.
            row_ids = [f"pos:{index}" for index in range(len(rows))]
        self.row_ids: list[str] = row_ids
        self.columns: list = ([list(column) for column in zip(*rows)]
                              if rows else
                              [[] for __ in range(len(schema))])

    @staticmethod
    def from_columns(schema: Schema, columns: Sequence[Sequence],
                     row_ids: Optional[list] = None) -> "Relation":
        """Build a relation directly from parallel column arrays.

        ``columns`` is adopted by reference (no copy); every column must
        have the same length, equal to ``len(row_ids)``. A zero-column
        relation (``SELECT`` without ``FROM``) takes its row count from
        ``row_ids`` alone.
        """
        relation = Relation.__new__(Relation)
        relation.schema = schema
        relation.columns = list(columns)
        if not row_ids:
            count = len(columns[0]) if columns else 0
            row_ids = [f"pos:{index}" for index in range(count)]
        elif columns and len(row_ids) != len(columns[0]):
            raise ValueError("row_ids must parallel columns")
        relation.row_ids = row_ids
        return relation

    @staticmethod
    def concat(schema: Schema, blocks: Iterable) -> "Relation":
        """Concatenate columnar blocks — anything with parallel
        ``row_ids`` and ``columns``, such as micro-partitions — in order,
        by extending per-column accumulators with whole column arrays."""
        ids: list[str] = []
        columns: list[list] = [[] for __ in range(len(schema))]
        for block in blocks:
            ids.extend(block.row_ids)
            for accumulator, column in zip(columns, block.columns):
                accumulator.extend(column)
        return Relation.from_columns(schema, columns, ids)

    def with_schema(self, schema: Schema) -> "Relation":
        """The same rows and ids, shared by reference, under ``schema`` (a
        scan requalifying stored columns under the plan's alias)."""
        relation = Relation.__new__(Relation)
        relation.schema = schema
        relation.columns = self.columns
        relation.row_ids = self.row_ids
        return relation

    # -- views ----------------------------------------------------------------

    @property
    def rows(self) -> list[tuple]:
        """Row tuples, built from the columns on each access."""
        if self.columns:
            return list(zip(*self.columns))
        return [()] * len(self.row_ids)

    def column(self, index: int) -> Sequence:
        """One column's value array."""
        return self.columns[index]

    def __len__(self) -> int:
        return len(self.row_ids)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def pairs(self) -> Iterator[tuple[str, tuple]]:
        """Iterate ``(row_id, row)`` pairs."""
        return zip(self.row_ids, self.rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({len(self)} rows)"


class SnapshotResolver(Protocol):
    """Resolves table names to relations at one fixed point in time.

    Four reads, of which only ``scan`` is required:

    * ``scan(table)`` — the whole table;
    * ``scan_pruned(table, bounds)`` — the partitions whose zone maps
      might satisfy the executor's pushed-down filter bounds;
    * ``scan_partitions(table)`` — the micro-partitions, for streaming
      cursors and EXPLAIN's pruning report;
    * ``scan_matching(table, positions, keys, delta_rows)`` — the rows
      whose key is in ``keys()``, for the differentiator's probes.

    Storage-backed resolvers implement all four once, in
    :class:`repro.txn.manager.VersionReader`; a transaction adds its
    read-your-writes overlay to the first three. :class:`DictResolver`
    (tests, hand-built endpoints) has only ``scan``, so callers fall back
    to reading the whole relation. The executor never touches the catalog
    directly — this is what lets a dynamic-table refresh evaluate its
    defining query "as of" its data timestamp (delayed view semantics).
    """

    def scan(self, table: str) -> Relation:
        """The contents of ``table`` in this snapshot."""
        ...


class DictResolver:
    """A SnapshotResolver over ``{name: Relation}`` (for tests)."""

    def __init__(self, relations: dict[str, Relation]):
        self._relations = relations

    def scan(self, table: str) -> Relation:
        return self._relations[table]
