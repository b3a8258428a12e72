"""Aggregate function evaluation: full recomputation and accumulators.

:func:`evaluate_aggregate` computes one aggregate by full recomputation
over a group's already-evaluated argument values — the reference
semantics, used by the executor and by the *affected-group* incremental
strategy (recompute exactly the groups whose inputs changed), which
matches the paper's production stance
(section 5.5.3: "none of our derivatives so far reuse the state from
preceding data timestamps already stored in the DT").

The **accumulator protocol** is the state-carrying alternative that
section 5.5.3 stops short of: a per-group object with
``insert``/``retract``/``merge``/``finalize`` (plus the vectorized
``insert_arrays``/``retract_arrays`` over columnar delta slices) that the
stateful aggregate rule (:mod:`repro.ivm.aggstate`) folds delta rows into,
one O(1) operation per row. COUNT/SUM/AVG are fully retractable;
MIN/MAX keep a per-group value multiset and recompute the extremum only
when the current extremum's last copy is retracted; DISTINCT-qualified
aggregates keep a count per distinct value. :func:`retractable_call`
classifies which :class:`~repro.plan.logical.AggregateCall` shapes have an
accumulator — the rest fall back to affected-group recomputation.

``count_if`` is the Snowflake conditional count used in the paper's
Listing 1.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.engine import types as t
from repro.engine.types import SqlType, Value
from repro.errors import EvaluationError, InternalError


def evaluate_aggregate(function: str, distinct: bool,
                       values: Optional[Sequence[Value]],
                       row_count: int) -> Value:
    """Evaluate one aggregate over a single group.

    ``values`` are the aggregate's argument, already evaluated, one per
    row of the group (None for an argument-less call, i.e. ``COUNT(*)``);
    ``row_count`` is the group's size. Callers evaluate the argument once
    over their whole input and gather each group's values by index.
    """
    if function == "count" and values is None:
        return row_count

    if values is None:
        raise EvaluationError(f"aggregate {function} requires an argument")

    if function == "count_if":
        # count_if counts rows where the predicate is TRUE.
        return sum(1 for value in values if value is True)

    # The remaining aggregates skip NULLs.
    non_null = [value for value in values if value is not None]
    if distinct:
        seen: dict[tuple, Value] = {}
        for value in non_null:
            seen.setdefault(t.group_key((value,)), value)
        non_null = list(seen.values())

    if function == "count":
        return len(non_null)
    if not non_null:
        # SQL: aggregates over an empty (post-NULL-filter) set yield NULL.
        return None
    if function == "sum":
        return sum(non_null)
    if function == "avg":
        return sum(non_null) / len(non_null)
    if function == "min":
        return _extreme(non_null, want_max=False)
    if function == "max":
        return _extreme(non_null, want_max=True)
    if function == "any_value":
        # Deterministic choice (first in input order) so incremental and
        # full refreshes agree whenever input order is stable.
        return non_null[0]
    if function == "median":
        ordered = sorted(non_null)
        middle = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[middle]
        return (ordered[middle - 1] + ordered[middle]) / 2
    if function in ("stddev", "variance"):
        if len(non_null) < 2:
            return None  # sample statistics need two observations
        mean = sum(non_null) / len(non_null)
        variance = (sum((value - mean) ** 2 for value in non_null)
                    / (len(non_null) - 1))
        return variance if function == "variance" else variance ** 0.5
    if function == "listagg":
        # Deterministic order (sorted by value) so incremental and full
        # refreshes agree regardless of arrival order.
        return ",".join(str(value) for value in sorted(non_null, key=repr))
    raise EvaluationError(f"unknown aggregate function {function}")


def _extreme(values: Sequence[Value], want_max: bool) -> Value:
    best = values[0]
    for value in values[1:]:
        result = t.compare(value, best)
        if result is None:
            continue
        if (result > 0) == want_max and result != 0:
            best = value
    return best


# ---------------------------------------------------------------------------
# Retractable accumulators (the stateful incremental-aggregation protocol)
# ---------------------------------------------------------------------------

class RetractionError(InternalError):
    """A retraction did not match previously inserted state — the delta
    stream and the accumulator have diverged (e.g. an out-of-order or
    replayed interval). The stateful rule treats this as a signal to drop
    the state store and fall back to recomputation, never to guess."""


class Accumulator:
    """One aggregate's per-group incremental state.

    The protocol: ``insert(value)`` folds one input row in, ``retract
    (value)`` removes a previously inserted row, ``merge(other)`` absorbs
    another accumulator of the same shape (partial states computed per
    partition), and ``finalize()`` yields the aggregate's current SQL
    value. ``insert_arrays``/``retract_arrays`` fold a whole columnar
    delta slice at once; the base implementations loop, concrete
    accumulators override them with bulk arithmetic where the function
    allows (``sum``/``len`` run at C speed).

    Every operation is O(1) (amortized for MIN/MAX, whose extremum rescan
    is paid only when the current extremum's last copy is retracted), so
    folding a delta is O(|delta|) regardless of group sizes.
    """

    __slots__ = ()

    def insert(self, value: Value) -> None:
        raise NotImplementedError

    def retract(self, value: Value) -> None:
        raise NotImplementedError

    def merge(self, other: "Accumulator") -> None:
        raise NotImplementedError

    def finalize(self) -> Value:
        raise NotImplementedError

    def insert_arrays(self, values: Sequence[Value]) -> None:
        for value in values:
            self.insert(value)

    def retract_arrays(self, values: Sequence[Value]) -> None:
        for value in values:
            self.retract(value)


class CountStarAccumulator(Accumulator):
    """COUNT(*): every row counts, NULLs included."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def insert(self, value: Value) -> None:
        self.count += 1

    def retract(self, value: Value) -> None:
        self.count -= 1
        if self.count < 0:
            raise RetractionError("count(*) retracted below zero")

    def merge(self, other: "CountStarAccumulator") -> None:
        self.count += other.count

    def finalize(self) -> Value:
        return self.count

    def insert_arrays(self, values: Sequence[Value]) -> None:
        self.count += len(values)

    def retract_arrays(self, values: Sequence[Value]) -> None:
        self.count -= len(values)
        if self.count < 0:
            raise RetractionError("count(*) retracted below zero")


class CountAccumulator(CountStarAccumulator):
    """COUNT(x): non-NULL rows count."""

    __slots__ = ()

    def insert(self, value: Value) -> None:
        if value is not None:
            self.count += 1

    def retract(self, value: Value) -> None:
        if value is not None:
            self.count -= 1
            if self.count < 0:
                raise RetractionError("count retracted below zero")

    def insert_arrays(self, values: Sequence[Value]) -> None:
        self.count += len(values) - values.count(None)

    def retract_arrays(self, values: Sequence[Value]) -> None:
        self.count -= len(values) - values.count(None)
        if self.count < 0:
            raise RetractionError("count retracted below zero")


class CountIfAccumulator(CountStarAccumulator):
    """COUNT_IF(pred): rows where the predicate is TRUE count."""

    __slots__ = ()

    def insert(self, value: Value) -> None:
        if value is True:
            self.count += 1

    def retract(self, value: Value) -> None:
        if value is True:
            self.count -= 1
            if self.count < 0:
                raise RetractionError("count_if retracted below zero")

    def insert_arrays(self, values: Sequence[Value]) -> None:
        self.count += values.count(True)

    def retract_arrays(self, values: Sequence[Value]) -> None:
        self.count -= values.count(True)
        if self.count < 0:
            raise RetractionError("count_if retracted below zero")


class SumAccumulator(Accumulator):
    """SUM(x) over an exact (non-FLOAT) argument: running total plus the
    non-NULL count that decides the all-NULL → NULL result."""

    __slots__ = ("total", "count")

    def __init__(self):
        self.total = 0
        self.count = 0

    def insert(self, value: Value) -> None:
        if value is not None:
            self.total += value
            self.count += 1

    def retract(self, value: Value) -> None:
        if value is not None:
            self.total -= value
            self.count -= 1
            if self.count < 0:
                raise RetractionError("sum retracted below zero rows")

    def merge(self, other: "SumAccumulator") -> None:
        self.total += other.total
        self.count += other.count

    def finalize(self) -> Value:
        return self.total if self.count else None

    def insert_arrays(self, values: Sequence[Value]) -> None:
        nulls = values.count(None)
        if nulls:
            values = [value for value in values if value is not None]
        self.total += sum(values)
        self.count += len(values)

    def retract_arrays(self, values: Sequence[Value]) -> None:
        nulls = values.count(None)
        if nulls:
            values = [value for value in values if value is not None]
        self.total -= sum(values)
        self.count -= len(values)
        if self.count < 0:
            raise RetractionError("sum retracted below zero rows")


class AvgAccumulator(SumAccumulator):
    """AVG(x): sum and count, divided at finalize — deterministic for
    exact argument types because (total, count) are maintained exactly."""

    __slots__ = ()

    def finalize(self) -> Value:
        return self.total / self.count if self.count else None


class ExtremeAccumulator(Accumulator):
    """MIN/MAX: a value multiset (value -> copy count) plus the cached
    extremum. Inserts compare against the cached extremum in O(1);
    retracting the extremum's last copy rescans the *distinct* values of
    the group — the "recompute only the evicted group" strategy, bounded
    by the group's distinct cardinality rather than its row count."""

    __slots__ = ("want_max", "counts", "best")

    def __init__(self, want_max: bool):
        self.want_max = want_max
        self.counts: dict = {}       # value -> number of copies present
        self.best: Value = None      # cached extremum (None when empty)

    def insert(self, value: Value) -> None:
        if value is None:
            return
        counts = self.counts
        present = counts.get(value, 0)
        counts[value] = present + 1
        if not present:
            if len(counts) == 1:
                self.best = value
            else:
                result = t.compare(value, self.best)
                if result is not None and result != 0 \
                        and (result > 0) == self.want_max:
                    self.best = value

    def retract(self, value: Value) -> None:
        if value is None:
            return
        counts = self.counts
        present = counts.get(value, 0)
        if not present:
            raise RetractionError(
                f"retraction of {value!r} not present in min/max state")
        if present > 1:
            counts[value] = present - 1
            return
        del counts[value]
        if value == self.best:
            self.best = (_extreme(list(counts), self.want_max)
                         if counts else None)

    def merge(self, other: "ExtremeAccumulator") -> None:
        for value, count in other.counts.items():
            self.counts[value] = self.counts.get(value, 0) + count
        if self.counts:
            self.best = _extreme(list(self.counts), self.want_max)

    def finalize(self) -> Value:
        return self.best


class DistinctAccumulator(Accumulator):
    """COUNT/SUM/AVG(DISTINCT x): a count per distinct value. The
    distinct total is maintained on 0→1 / 1→0 transitions — but only for
    sum/avg, so ``count(distinct x)`` works over non-summable values
    (TEXT, TIMESTAMP, ...)."""

    __slots__ = ("function", "counts", "total", "_summing")

    def __init__(self, function: str):
        self.function = function
        self.counts: dict = {}   # value -> number of copies present
        self.total = 0
        self._summing = function in ("sum", "avg")

    def insert(self, value: Value) -> None:
        if value is None:
            return
        present = self.counts.get(value, 0)
        self.counts[value] = present + 1
        if not present and self._summing:
            self.total += value

    def retract(self, value: Value) -> None:
        if value is None:
            return
        present = self.counts.get(value, 0)
        if not present:
            raise RetractionError(
                f"retraction of {value!r} not present in distinct state")
        if present > 1:
            self.counts[value] = present - 1
            return
        del self.counts[value]
        if self._summing:
            self.total -= value

    def merge(self, other: "DistinctAccumulator") -> None:
        for value, count in other.counts.items():
            present = self.counts.get(value, 0)
            self.counts[value] = present + count
            if not present and self._summing:
                self.total += value

    def finalize(self) -> Value:
        distinct = len(self.counts)
        if self.function == "count":
            return distinct
        if not distinct:
            return None
        if self.function == "sum":
            return self.total
        return self.total / distinct  # avg


#: Functions with a retractable accumulator. Everything else (median,
#: stddev/variance, listagg, any_value — all order- or whole-group-
#: dependent) falls back to affected-group recomputation.
_RETRACTABLE_FUNCTIONS = frozenset(
    {"count", "count_if", "sum", "avg", "min", "max"})

#: Argument types whose accumulators would not reproduce recomputation
#: byte-for-byte (or not run at all): FLOAT running sums drift from the
#: scan-order sum by rounding, FLOAT/VARIANT extremum comparisons can be
#: order-dependent (NaN, incomparable variants), TEXT is not summable,
#: and VARIANT values (dicts/lists) are unhashable as multiset keys. The
#: same conservatism the paper applies to FLOAT grouping keys
#: (section 3.4).
_INEXACT_SUM_TYPES = (SqlType.FLOAT, SqlType.VARIANT, SqlType.TEXT)
_INEXACT_EXTREME_TYPES = (SqlType.FLOAT, SqlType.VARIANT)


def retractable_call(call) -> bool:
    """Whether an :class:`~repro.plan.logical.AggregateCall` has an exact
    retractable accumulator (and so may be maintained statefully)."""
    function = call.function
    if function not in _RETRACTABLE_FUNCTIONS:
        return False
    if call.distinct and function == "count_if":
        return False
    arg_type = None if call.arg is None else call.arg.type
    if function in ("sum", "avg") and arg_type in _INEXACT_SUM_TYPES:
        return False
    if function in ("min", "max") and arg_type in _INEXACT_EXTREME_TYPES:
        return False
    if call.distinct and arg_type == SqlType.VARIANT:
        return False  # distinct state keys by raw value; dicts unhashable
    # count(x) / count_if only test NULLness or truth: any type is exact.
    return True


def make_accumulator(call) -> Accumulator:
    """A fresh accumulator for one aggregate call.

    Callers must have checked :func:`retractable_call` first.
    """
    function = call.function
    if call.distinct and function in ("count", "sum", "avg"):
        return DistinctAccumulator(function)
    if function == "count":
        return (CountStarAccumulator() if call.arg is None
                else CountAccumulator())
    if function == "count_if":
        return CountIfAccumulator()
    if function == "sum":
        return SumAccumulator()
    if function == "avg":
        return AvgAccumulator()
    if function in ("min", "max"):
        # DISTINCT is a no-op for extrema; the multiset handles duplicates.
        return ExtremeAccumulator(want_max=function == "max")
    raise EvaluationError(
        f"no retractable accumulator for aggregate {function}")
