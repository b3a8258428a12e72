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

The row-tuple entry points remain: ``Relation(schema, rows, row_ids)``
construction, ``rows`` access, ``pairs()``, ``__iter__``, ``append`` and
``from_pairs``. Internally the relation holds *either* layout (whichever
it was built from) and materializes the other lazily, caching it;
``append`` keeps every materialized layout in sync. Storage scans build
the columnar layout and every kernel — joins, unions and the derivative
rules included — reads and writes it. The row view is for result
delivery (``QueryResult``, cursor buffers, ``rows_by_id``), for the
producers whose unit of work is a row (VALUES, DISTINCT, FLATTEN, the
top-k heap, one-row-per-group aggregate output) and for a transaction's
read-your-writes overlay.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Protocol, Sequence

from repro.engine.schema import Schema


class Relation:
    """An in-memory bag of rows with parallel row ids, stored column-major.

    ``rows`` and ``columns`` are two views of the same data; at least one
    is always materialized and the other is derived (and cached) on first
    access. Callers must treat both as read-only — mutate only through
    :meth:`append`.
    """

    __slots__ = ("schema", "row_ids", "_rows", "_columns")

    def __init__(self, schema: Schema, rows: Optional[list] = None,
                 row_ids: Optional[list] = None):
        self.schema = schema
        self._rows: Optional[list[tuple]] = rows if rows is not None else []
        self._columns: Optional[list] = None
        if row_ids is None:
            row_ids = []
        if row_ids and len(row_ids) != len(self._rows):
            raise ValueError("row_ids must parallel rows")
        if not row_ids and self._rows:
            # Positional fallback ids; storage always provides real ids.
            row_ids = [f"pos:{index}" for index in range(len(self._rows))]
        self.row_ids: list[str] = row_ids

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
        relation._rows = None
        relation._columns = list(columns)
        if not row_ids:
            count = len(columns[0]) if columns else 0
            row_ids = [f"pos:{index}" for index in range(count)]
        elif columns and len(row_ids) != len(columns[0]):
            raise ValueError("row_ids must parallel columns")
        relation.row_ids = row_ids
        return relation

    def with_schema(self, schema: Schema) -> "Relation":
        """The same rows and ids, shared by reference in whichever
        layouts are materialized, under ``schema`` (a scan requalifying
        stored columns under the plan's alias)."""
        relation = Relation.__new__(Relation)
        relation.schema = schema
        relation._rows = self._rows
        relation._columns = self._columns
        relation.row_ids = self.row_ids
        return relation

    # -- views ----------------------------------------------------------------

    @property
    def rows(self) -> list[tuple]:
        """Row tuples (the row view; materialized lazily)."""
        if self._rows is None:
            columns = self._columns
            if columns:
                self._rows = list(zip(*columns))
            else:
                self._rows = [()] * len(self.row_ids)
        return self._rows

    @property
    def columns(self) -> list:
        """Per-column value arrays, parallel to ``row_ids`` (materialized
        lazily from the row view when needed)."""
        if self._columns is None:
            rows = self._rows
            if rows:
                self._columns = [list(column) for column in zip(*rows)]
            else:
                self._columns = [[] for __ in range(len(self.schema))]
        return self._columns

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

    # -- mutation -------------------------------------------------------------

    def append(self, row_id: str, row: tuple) -> None:
        """Append one row, keeping every materialized layout in sync."""
        if self._rows is not None:
            self._rows.append(row)
        columns = self._columns
        if columns is not None:
            for index, value in enumerate(row):
                column = columns[index]
                if type(column) is not list:
                    columns[index] = column = list(column)
                column.append(value)
        self.row_ids.append(row_id)

    @staticmethod
    def from_pairs(schema: Schema, pairs: Iterable[tuple[str, tuple]]) -> "Relation":
        relation = Relation(schema)
        for row_id, row in pairs:
            relation.append(row_id, row)
        return relation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        layout = "columnar" if self._columns is not None else "row-major"
        return f"Relation({len(self)} rows, {layout})"


class SnapshotResolver(Protocol):
    """Resolves table names to relations at one fixed point in time.

    Implementations: a transaction's snapshot view
    (:class:`repro.txn.manager.Transaction`), or a plain dict in tests. The
    executor never touches the catalog directly — this is what lets a
    dynamic-table refresh evaluate its defining query "as of" its data
    timestamp (delayed view semantics).
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
