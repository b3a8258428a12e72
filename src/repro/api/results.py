"""Result objects of the public API.

:class:`QueryResult` is the fully materialized result the
``Database.query`` / ``Session.query`` facade returns (schema + rows +
row ids). Streaming results — pages served per micro-partition — live on
:class:`repro.api.cursor.Cursor`; this module only contributes the shared
DB-API ``description`` rendering of a schema.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.relation import Relation
from repro.engine.schema import Schema


@dataclass
class QueryResult:
    """The result of a SELECT: schema + rows (row ids retained)."""

    schema: Schema
    rows: list[tuple]
    row_ids: list[str]

    @property
    def columns(self) -> list[str]:
        return self.schema.names

    def to_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def sorted_rows(self) -> list[tuple]:
        """Rows under a stable order (handy for assertions)."""
        return sorted(self.rows, key=lambda row: tuple(map(repr, row)))

    @staticmethod
    def from_relation(relation: Relation) -> "QueryResult":
        return QueryResult(relation.schema, relation.rows,
                           list(relation.row_ids))


def description_of(schema: Schema) -> list[tuple]:
    """DB-API 2.0 ``description`` tuples for a result schema: 7-item rows
    of which only ``name`` and ``type_code`` are meaningful here."""
    return [(column.name, column.type.name.lower(), None, None, None, None,
             None)
            for column in schema]
