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

A VALUES list is bound with the rest of the statement
(:func:`~repro.plan.builder.build_write`; a prepared statement takes the
binding from the plan cache): its target column list is resolved and each
value expression bound, bind parameters kept as slots. Executing it reads
each slot as a column of the slot block and evaluates each VALUES row once
over the whole batch — a ``?`` is its slot column, a literal a repeated
value, any other expression the vectorized compiler's output over the slot
columns — and a multi-row VALUES list interleaves its rows in bind-set
order.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from repro.engine import expressions as e
from repro.engine import types as t
from repro.engine.schema import Schema
from repro.errors import EvaluationError
from repro.plan import logical as lp

#: ``(index in the block, value position) -> where the value came from``,
#: the prefix of a cast error raised for a batch.
Locator = Callable[[int, int], str]


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


def values_block(write: lp.Write, slot_columns: Sequence[Sequence],
                 count: int, ctx: e.EvalContext, batch: bool = False) -> list:
    """The column block an INSERT ... VALUES ``write`` inserts for
    ``count`` bind sets given as ``slot_columns``. In a ``batch`` a cast
    error names the bind set (and the slot) its value came from."""
    rows = write.values
    built = [e.compile_row_columnar(
        [e.parameters_as_columns(expr) for expr in row], ctx)(
            slot_columns, count) for row in rows]
    if len(built) == 1:
        values = built[0]
    else:
        values = [list(itertools.chain.from_iterable(zip(*arrays)))
                  for arrays in zip(*built)]

    def locate(index: int, position: int) -> str:
        bind_set, row = divmod(index, len(rows))
        expr = rows[row][position]
        if isinstance(expr, e.BoundParameter):
            return f"bind set {bind_set}, {expr.label}"
        return f"bind set {bind_set}"

    return cast_block(values, write.positions, write.schema,
                      count * len(rows), locate if batch else None)
