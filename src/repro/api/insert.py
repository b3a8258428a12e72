"""INSERT, one column at a time: from the bind sets to ``build_partitions``.

Every INSERT — one-shot or prepared, ``execute`` or ``executemany``,
VALUES or SELECT — produces its new rows as a **column block**: one array
per table column, each cast to its column's type by
:func:`~repro.engine.types.cast_column` with one type dispatch. The
transaction stages the block by reference
(:meth:`~repro.txn.manager.Transaction.insert_rows`) and commit hands it
to :func:`~repro.storage.partition.build_partitions`, so no row tuple is
built between the caller's bind sets and the micro-partitions. The one
transpose is :meth:`~repro.api.prepared.ParameterSpec.bind_columns`, at
the bind edge; an INSERT ... SELECT reads its relation's columns as they
are.

A VALUES list is bound once per statement and catalog epoch
(:func:`bind_values`; a prepared statement caches the result): its target
column list is resolved and each value expression is bound with its bind
parameters read as columns of the slot block. Executing it evaluates each
VALUES row once over the whole batch — a ``?`` is its slot column, a
literal a repeated value, any other expression the vectorized compiler's
output over the slot columns — and a multi-row VALUES list interleaves its
rows in bind-set order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.engine import expressions as e
from repro.engine import types as t
from repro.engine.schema import Schema
from repro.errors import EvaluationError, UserError
from repro.plan.builder import bind_expression
from repro.sql import nodes as n

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.prepared import ParameterSpec
    from repro.storage.catalog import Catalog

#: ``(index in the block, value position) -> where the value came from``,
#: the prefix of a cast error raised for a batch.
Locator = Callable[[int, int], str]


def target_positions(schema: Schema, names: Sequence[str],
                     width: int) -> tuple[Optional[int], ...]:
    """For each column of ``schema``, the position of the value that fills
    it in a row of ``width`` values, or None where it takes NULL.
    ``names`` is the INSERT's column list (empty: every column, in order),
    each resolved through :meth:`Schema.resolve` — an unknown name raises
    ``BindError`` and a repeated one ``UserError``."""
    if not names:
        if width != len(schema):
            raise UserError(
                f"INSERT arity mismatch: expected {len(schema)} values, "
                f"got {width}")
        return tuple(range(width))
    targets = [schema.resolve(name) for name in names]
    for position, target in enumerate(targets):
        if target in targets[:position]:
            raise UserError(
                f"column {names[position]!r} is listed more than once in "
                f"INSERT")
    if width != len(names):
        raise UserError(
            f"INSERT arity mismatch: expected {len(names)} values, "
            f"got {width}")
    source = {target: position for position, target in enumerate(targets)}
    return tuple(source.get(index) for index in range(len(schema)))


def cast_block(values: Sequence[Sequence], positions, schema: Schema,
               count: int, locate: Optional[Locator] = None) -> list:
    """The column block of ``count`` new rows: for each table column, the
    value array at its position cast to the column's type (the array
    itself when it already has that type), or NULLs. ``locate`` prefixes
    a cast error with where the offending value came from."""
    block: list = []
    for position, column in zip(positions, schema):
        if position is None:
            block.append([None] * count)
            continue
        try:
            block.append(t.cast_column(values[position], column.type))
        except EvaluationError:
            if locate is None:
                raise
            for index, value in enumerate(values[position]):
                try:
                    t.cast_value(value, column.type)
                except EvaluationError as exc:
                    raise EvaluationError(
                        f"{locate(index, position)}: {exc}") from None
            raise  # pragma: no cover - the scan re-raises
    return block


@dataclass(frozen=True)
class BoundValues:
    """An INSERT ... VALUES list bound against its table: ``positions``
    maps each table column to a value position (see
    :func:`target_positions`), and ``rows`` holds each VALUES row's
    expressions over the slot block. ``key`` is the catalog epoch and
    function-registry version it was bound under."""

    key: tuple[int, int]
    schema: Schema
    positions: tuple[Optional[int], ...]
    rows: tuple[tuple[e.Expression, ...], ...]

    def block(self, slot_columns: Sequence[Sequence], count: int,
              ctx: e.EvalContext, batch: bool = False) -> list:
        """The column block these VALUES insert for ``count`` bind sets
        given as ``slot_columns``. In a ``batch`` a cast error names the
        bind set (and the slot) its value came from."""
        built = [e.compile_row_columnar(row, ctx)(slot_columns, count)
                 for row in self.rows]
        if len(built) == 1:
            values = built[0]
        else:
            values = [list(itertools.chain.from_iterable(zip(*arrays)))
                      for arrays in zip(*built)]
        return cast_block(values, self.positions, self.schema,
                          count * len(self.rows),
                          self._locate if batch else None)

    def _locate(self, index: int, position: int) -> str:
        bind_set, row = divmod(index, len(self.rows))
        expr = self.rows[row][position]
        if isinstance(expr, e.ColumnRef):  # a bare parameter
            return f"bind set {bind_set}, {expr.name}"
        return f"bind set {bind_set}"


def bind_values(statement: n.Insert, catalog: "Catalog",
                registry: e.FunctionRegistry,
                spec: "ParameterSpec") -> BoundValues:
    """Bind an INSERT ... VALUES statement against the current catalog."""
    schema = catalog.versioned_table(statement.table).schema
    positions: tuple[Optional[int], ...] = ()
    for row in statement.rows:
        positions = target_positions(schema, statement.columns, len(row))
    no_columns = Schema(())
    rows = tuple(
        tuple(e.parameters_as_columns(bind_expression(
            expr, no_columns, registry, parameters=spec)) for expr in row)
        for row in statement.rows)
    return BoundValues((catalog.epoch, registry.version), schema,
                       positions, rows)
