"""Window function evaluation over the partitions of one input.

Section 5.5.1 of the paper implements window-function differentiation by
recomputing *changed partitions*; that only yields consistent results when
evaluation within a partition is deterministic, "as long as ties in ORDER
BY are broken repeatably". We therefore always break ORDER BY ties with a
stable final key (the row's own encoded value plus its row id), making a
partition's output a pure function of its row multiset.

Evaluation is batched: each call's ORDER BY keys and argument are
evaluated once over the whole input through the vectorized compiler
(:mod:`repro.engine.expressions`), and every partition then sorts and
frames by row index into those arrays — O(n) expression evaluations
instead of one per comparison, and none per partition.

Frames follow the SQL defaults:

* no ORDER BY → the whole partition is the frame (for aggregate functions);
* ORDER BY present → cumulative frame, RANGE UNBOUNDED PRECEDING TO CURRENT
  ROW — peer rows (equal order keys) share frame results.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from repro.engine import types as t
from repro.engine.aggregates import evaluate_aggregate
from repro.engine.expressions import (EvalContext,
                                      compile_expression_columnar,
                                      compile_row_columnar)
from repro.engine.relation import Relation
from repro.engine.types import Value
from repro.errors import EvaluationError
from repro.plan.logical import WindowCall


def sort_partition(columns: Sequence[Sequence], row_ids: Sequence[str],
                   keys: Sequence[Sequence], descending: Sequence[bool],
                   indices: Sequence[int],
                   tie_cache: Optional[list] = None) -> list[int]:
    """Return the row indices ``indices`` in window evaluation order.

    ``columns`` / ``row_ids`` are the whole input; ``keys`` holds one
    already-evaluated value array per ORDER BY key (parallel to the
    input) and ``descending`` that key's direction. Sorts by the ORDER BY
    keys (NULLS LAST ascending / NULLS FIRST descending, Snowflake's
    defaults), breaking ties with the stable hash of the full row and
    finally the row id — the "repeatable tie-break" the paper's window
    derivative requires.

    The tie-break digest is computed lazily — only for rows that actually
    tie — and memoized in ``tie_cache`` (parallel to the input), which
    callers sorting the same rows repeatedly (one Window node, several
    calls) share across calls.
    """
    if tie_cache is None:
        tie_cache = [None] * len(row_ids)
    ordering = list(zip(keys, descending))

    def tie_key(index: int) -> tuple:
        value = tie_cache[index]
        if value is None:
            row = tuple(column[index] for column in columns)
            value = tie_cache[index] = (t.stable_hash(row), row_ids[index])
        return value

    def compare_rows(left: int, right: int) -> int:
        for values, reverse in ordering:
            result = _compare_with_nulls(values[left], values[right],
                                         reverse)
            if result != 0:
                return result
        left_tie = tie_key(left)
        right_tie = tie_key(right)
        if left_tie < right_tie:
            return -1
        if left_tie > right_tie:
            return 1
        return 0

    return sorted(indices, key=functools.cmp_to_key(compare_rows))


def _compare_with_nulls(left: Value, right: Value, descending: bool) -> int:
    if left is None and right is None:
        return 0
    if left is None:
        # NULLS LAST when ascending, NULLS FIRST when descending.
        return 1 if not descending else -1
    if right is None:
        return -1 if not descending else 1
    result = t.compare(left, right)
    assert result is not None
    return -result if descending else result


def evaluate_window_calls(calls: Sequence[WindowCall], child: Relation,
                          partitions: Sequence[Sequence[int]],
                          ctx: EvalContext) -> list[list[Value]]:
    """Evaluate every window call over every partition of ``child``.

    ``partitions`` lists each partition's row indices into ``child``.
    Returns one value array per call, parallel to ``child`` (the caller
    appends these as extra columns).
    """
    count = len(child)
    columns = child.columns
    tie_cache: list = [None] * count  # shared: ties are key-independent
    outputs: list[list[Value]] = []
    for call in calls:
        keys = compile_row_columnar([expr for expr, __ in call.order_by],
                                    ctx)(columns, count)
        descending = [flag for __, flag in call.order_by]
        args = (None if call.arg is None else
                compile_expression_columnar(call.arg, ctx)(columns, count))
        output: list[Value] = [None] * count
        for partition in partitions:
            ordered = sort_partition(columns, child.row_ids, keys,
                                     descending, partition, tie_cache)
            for index, value in zip(ordered,
                                    _evaluate_one(call, args, keys, ordered)):
                output[index] = value
        outputs.append(output)
    return outputs


def _order_keys(keys: Sequence[Sequence], ordered: Sequence[int]) -> list[tuple]:
    """Group keys of the (already evaluated) ORDER BY values, aligned with
    ``ordered``."""
    return t.group_key_columns(
        [[values[index] for index in ordered] for values in keys],
        len(ordered))


def _evaluate_one(call: WindowCall, args: Optional[Sequence[Value]],
                  keys: Sequence[Sequence],
                  ordered: Sequence[int]) -> list[Value]:
    """Values for one call over one partition, positionally aligned with
    ``ordered`` (the partition's row indices in evaluation order)."""
    size = len(ordered)

    if call.function == "row_number":
        return list(range(1, size + 1))

    if call.function in ("rank", "dense_rank"):
        return _rank_values(keys, ordered,
                            dense=call.function == "dense_rank")

    if call.function in ("lag", "lead"):
        assert args is not None
        values: list[Value] = []
        direction = -call.offset if call.function == "lag" else call.offset
        for position in range(size):
            source = position + direction
            if 0 <= source < size:
                values.append(args[ordered[source]])
            else:
                values.append(None)
        return values

    if call.function == "first_value":
        assert args is not None
        first = args[ordered[0]] if size else None
        return [first] * size

    if call.function == "last_value":
        assert args is not None
        last = args[ordered[-1]] if size else None
        return [last] * size

    if call.function in ("sum", "count", "avg", "min", "max", "count_if"):
        frame = (None if args is None
                 else [args[index] for index in ordered])
        if not call.order_by:
            # Whole-partition frame.
            return [evaluate_aggregate(call.function, False, frame,
                                       size)] * size
        return _cumulative_values(call, frame, keys, ordered)

    raise EvaluationError(f"unknown window function {call.function}")


def _rank_values(keys: Sequence[Sequence], ordered: Sequence[int],
                 dense: bool) -> list[Value]:
    order_keys = _order_keys(keys, ordered)
    values: list[Value] = []
    rank = 0
    dense_rank = 0
    previous_key: tuple | None = None
    for position, key in enumerate(order_keys):
        if key != previous_key:
            rank = position + 1
            dense_rank += 1
            previous_key = key
        values.append(dense_rank if dense else rank)
    return values


def _cumulative_values(call: WindowCall, frame: Optional[Sequence[Value]],
                       keys: Sequence[Sequence],
                       ordered: Sequence[int]) -> list[Value]:
    """Cumulative (RANGE UNBOUNDED PRECEDING) frame: peers share results.
    ``frame`` holds the call's argument values in evaluation order."""
    # Identify peer groups by order-key equality.
    order_keys = _order_keys(keys, ordered)
    values: list[Value] = [None] * len(ordered)
    position = 0
    while position < len(ordered):
        key = order_keys[position]
        end = position + 1
        while end < len(ordered) and order_keys[end] == key:
            end += 1
        value = evaluate_aggregate(call.function, False,
                                   None if frame is None else frame[:end],
                                   end)
        for index in range(position, end):
            values[index] = value
        position = end
    return values
