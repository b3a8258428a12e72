"""Window function evaluation over the partitions of one input, and the one
ordering kernel every ORDER BY in the engine sorts through.

Section 5.5.1 of the paper implements window-function differentiation by
recomputing *changed partitions*; that only yields consistent results when
evaluation within a partition is deterministic, "as long as ties in ORDER
BY are broken repeatably". We therefore always break ORDER BY ties with a
stable final key (the row's own encoded value plus its row id), making a
partition's output a pure function of its row multiset.

:class:`Ordering` — the kernel behind window partitions, ``ORDER BY`` and
the streamed ``ORDER BY ... LIMIT k`` — sorts row indices *by key*: one
stable C-level ``list.sort(key=..., reverse=...)`` per ORDER BY key, last
key first. A key's NULLs and NaNs sit out its pass and are placed by rule:
NULLS LAST ascending / NULLS FIRST descending (Snowflake's defaults), and
NaN above every other FLOAT (Snowflake's rule; NaNs are peers). Only rows
equal on every key compute the tie-break digest. A key array mixing types
``types.compare`` cannot order (TEXT with INT, BOOL with INT) raises
:class:`~repro.errors.EvaluationError` before sorting.

Evaluation is batched: each call's ORDER BY keys and argument are
evaluated once over the whole input through the vectorized compiler
(:mod:`repro.engine.expressions`), and every partition then sorts and
frames by row index into those arrays — O(n) expression evaluations
instead of one per comparison, and none per partition. A ranking call
evaluated under a rank *bound* (the rank filter ``QUALIFY rank <= k``)
stops each partition at the bound: only the peer groups that reach into
the first ``k`` ranks have their ties broken and their values computed.

Frames follow the SQL defaults:

* no ORDER BY → the whole partition is the frame (for aggregate functions);
* ORDER BY present → cumulative frame, RANGE UNBOUNDED PRECEDING TO CURRENT
  ROW — peer rows (equal order keys) share frame results.

Aggregate calls fold through the same accumulators as GROUP BY
(:func:`~repro.engine.aggregates.make_accumulator`), one per partition; a
cumulative frame feeds it row by row and reads it at each peer group's
end, so a partition costs one pass, not one re-aggregation per peer group.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, filterfalse, islice
from operator import ne
from typing import Optional, Sequence

from repro.engine import types as t
from repro.engine.aggregates import make_accumulator
from repro.engine.expressions import (EvalContext,
                                      compile_expression_columnar,
                                      compile_row_columnar)
from repro.engine.relation import Relation
from repro.engine.types import Value
from repro.errors import EvaluationError
from repro.plan.logical import WindowCall

#: The ranking functions a rank bound applies to.
RANKING = ("row_number", "rank", "dense_rank")

_NUMBERS = {int, float}
#: Stands in for NaN where keys are compared for peers (NaN != NaN).
_NAN = object()
#: Placement of a key's special values: NaN above every number, NULL
#: above NaN (reversed for a descending key: NULLS FIRST, then NaN).
_PLAIN, _NAN_RANK, _NULL_RANK = 0, 1, 2


class Ordering:
    """The ORDER BY of one input, ready to sort any subset of its rows.

    ``columns`` / ``row_ids`` are the whole input; ``keys`` holds one
    already-evaluated value array per ORDER BY key (parallel to the input)
    and ``descending`` that key's direction. ``ties`` memoizes the
    tie-break digest by row index; orderings over the same input (one
    Window node, several calls) may share it, since ties are
    key-independent.
    """

    def __init__(self, columns: Sequence[Sequence], row_ids: Sequence[str],
                 keys: Sequence[Sequence], descending: Sequence[bool],
                 ties: Optional[dict[int, tuple]] = None):
        self._columns = columns
        self._row_ids = row_ids
        self._ties = {} if ties is None else ties
        #: (values, special placement or None, descending), last key first.
        self._passes: list[tuple[Sequence, Optional[list], bool]] = []
        #: Per key, the values peers are compared by (NaN -> one sentinel).
        self._peers: list[Sequence] = []
        for values, reverse in zip(keys, descending):
            special, peers = _classify(values)
            self._passes.insert(0, (values, special, reverse))
            self._peers.append(peers)

    def by_keys(self, indices: Sequence[int]) -> tuple[list[int], list[int]]:
        """``indices`` ordered by the ORDER BY keys alone, plus the start
        position of every peer group (rows equal on every key) in it. Ties
        are left in input order: :meth:`break_ties` settles them."""
        order = list(indices)
        for values, special, reverse in self._passes:
            if special is None:
                order.sort(key=values.__getitem__, reverse=reverse)
                continue
            plain = list(filterfalse(special.__getitem__, order))
            plain.sort(key=values.__getitem__, reverse=reverse)
            odd = list(filter(special.__getitem__, order))
            odd.sort(key=special.__getitem__, reverse=reverse)
            order = odd + plain if reverse else plain + odd
        return order, self._peer_starts(order)

    def break_ties(self, order: list[int], starts: Sequence[int],
                   end: int) -> None:
        """Order every peer group of ``order`` that starts before position
        ``end`` by the stable tie-break, in place."""
        if len(starts) == len(order):
            return  # no two rows tie
        tie_key = self._tie_key
        for start, stop in _peer_groups(starts, len(order)):
            if start >= end:
                return
            if stop - start > 1:
                order[start:stop] = sorted(order[start:stop], key=tie_key)

    def sort(self, indices: Sequence[int],
             limit: Optional[int] = None) -> list[int]:
        """``indices`` in ORDER BY order, ties broken repeatably — the
        first ``limit`` of them when ``limit`` is given."""
        order, starts = self.by_keys(indices)
        end = len(order) if limit is None else min(limit, len(order))
        self.break_ties(order, starts, end)
        return order if end == len(order) else order[:end]

    def _peer_starts(self, order: list[int]) -> list[int]:
        count = len(order)
        if count < 2 or not self._peers:
            return [0] if count else []
        if len(self._peers) == 1:
            sequence: list = list(map(self._peers[0].__getitem__, order))
        else:
            sequence = list(zip(*[map(peers.__getitem__, order)
                                  for peers in self._peers]))
        return [0, *compress(range(1, count),
                             map(ne, sequence, islice(sequence, 1, None)))]

    def _tie_key(self, index: int) -> tuple:
        """The repeatable tie-break: the stable hash of the full row, then
        its row id — computed once per row, and only for tied rows."""
        tie = self._ties.get(index)
        if tie is None:
            row = tuple(column[index] for column in self._columns)
            tie = (t.stable_hash(row), self._row_ids[index])
            self._ties[index] = tie
        return tie


def _classify(values: Sequence) -> tuple[Optional[list], Sequence]:
    """Check one key array is totally ordered and find its special values:
    ``(special, peers)`` where ``special`` marks each NULL / NaN with its
    placement (None when the array has neither) and ``peers`` is the array
    with every NaN replaced by one sentinel."""
    types = set(map(type, values))
    types.discard(type(None))
    if len(types) > 1 and not types <= _NUMBERS:
        raise EvaluationError("cannot compare " + " with ".join(
            sorted(kind.__name__ for kind in types)))
    has_nan = float in types and any(value != value for value in values)
    if not has_nan and None not in values:
        return None, values
    special = [_NULL_RANK if value is None
               else _PLAIN if value == value else _NAN_RANK
               for value in values]
    if not has_nan:
        return special, values
    return special, [_NAN if value != value else value for value in values]


def _peer_groups(starts: Sequence[int], size: int) -> zip:
    """``(start, stop)`` of every peer group of a ``size``-row order."""
    return zip(starts, [*islice(starts, 1, None), size])


def evaluate_window_calls(calls: Sequence[WindowCall], child: Relation,
                          partitions: Sequence[Sequence[int]],
                          ctx: EvalContext,
                          bound: Optional[int] = None) -> list[list[Value]]:
    """Evaluate every window call over every partition of ``child``.

    ``partitions`` lists each partition's row indices into ``child``.
    Returns one value array per call, parallel to ``child`` (the caller
    appends these as extra columns). Under a rank ``bound`` — only for
    ranking calls — each partition is evaluated as far as the rows ranked
    ``<= bound``; every other row keeps None.
    """
    count = len(child)
    columns = child.columns
    ties: dict[int, tuple] = {}  # shared: ties are key-independent
    outputs: list[list[Value]] = []
    for call in calls:
        keys = compile_row_columnar([expr for expr, __ in call.order_by],
                                    ctx)(columns, count)
        ordering = Ordering(columns, child.row_ids, keys,
                            [flag for __, flag in call.order_by], ties)
        args = (None if call.arg is None else
                compile_expression_columnar(call.arg, ctx)(columns, count))
        output: list[Value] = [None] * count
        for partition in partitions:
            ordered, starts = ordering.by_keys(partition)
            end = (len(ordered) if bound is None else
                   _ranked_within(call.function, starts, len(ordered), bound))
            ordering.break_ties(ordered, starts, end)
            if end < len(ordered):
                del ordered[end:]
                del starts[bisect_left(starts, end):]
            for index, value in zip(ordered, _evaluate_one(call, args,
                                                           ordered, starts)):
                output[index] = value
        outputs.append(output)
    return outputs


def _ranked_within(function: str, starts: Sequence[int], size: int,
                   bound: int) -> int:
    """How many leading rows of a partition (``size`` rows, peer groups
    starting at ``starts``) rank ``<= bound`` under ``function``."""
    if bound <= 0:
        return 0
    if function == "row_number":
        return min(bound, size)
    if function == "rank":  # a group's rank is its start position + 1
        group = bisect_left(starts, bound)
    else:  # dense_rank: the first ``bound`` groups
        group = bound
    return starts[group] if group < len(starts) else size


def _evaluate_one(call: WindowCall, args: Optional[Sequence[Value]],
                  ordered: Sequence[int],
                  starts: Sequence[int]) -> list[Value]:
    """Values for one call over one partition, positionally aligned with
    ``ordered`` (the partition's row indices in evaluation order; peer
    groups start at ``starts``)."""
    size = len(ordered)

    if call.function == "row_number":
        return list(range(1, size + 1))

    if call.function in ("rank", "dense_rank"):
        return _rank_values(starts, size,
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
        return _frame_values(call, args, ordered, starts)

    raise EvaluationError(f"unknown window function {call.function}")


def _rank_values(starts: Sequence[int], size: int,
                 dense: bool) -> list[Value]:
    values: list[Value] = []
    for dense_rank, (start, stop) in enumerate(_peer_groups(starts, size),
                                               1):
        values.extend([dense_rank if dense else start + 1] * (stop - start))
    return values


def _frame_values(call: WindowCall, args: Optional[Sequence[Value]],
                  ordered: Sequence[int],
                  starts: Sequence[int]) -> list[Value]:
    """An aggregate call over one partition, through one accumulator.
    Without ORDER BY the whole partition is the frame. With it the frame
    is cumulative (RANGE UNBOUNDED PRECEDING): rows go in one at a time in
    evaluation order — a FLOAT running sum is the left fold in that order
    — and every peer group reads the accumulator after its last row, so
    peers share a value and the partition costs one pass."""
    size = len(ordered)
    accumulator = make_accumulator(call)
    frame = ordered if args is None else [args[index] for index in ordered]
    if not call.order_by:
        accumulator.insert_arrays(frame)
        return [accumulator.finalize()] * size
    values: list[Value] = []
    insert = accumulator.insert
    for start, stop in _peer_groups(starts, size):
        for position in range(start, stop):
            insert(frame[position])
        values.extend([accumulator.finalize()] * (stop - start))
    return values
