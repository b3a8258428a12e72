"""Aggregate functions: one accumulator per call, one grouping fold.

Every aggregate is defined once, as an **accumulator**: a per-group
object with ``insert``/``retract``/``finalize`` (plus the
vectorized ``insert_arrays``/``retract_arrays`` over columnar slices).
:func:`make_accumulator` builds one for every call shape the plan builder
binds, and every caller aggregates through it: GROUP BY, scalar
aggregates and DISTINCT in the executor, window aggregates
(:mod:`repro.engine.window`), the affected-group recompute, and the
stateful rule (:mod:`repro.ivm.aggstate`) — the state-carrying
derivative section 5.5.3 stops short of, which folds each delta row
into state kept across refreshes in O(1). Full and incremental
evaluation therefore cannot disagree on what an aggregate means.

COUNT/SUM/AVG are fully retractable; MIN/MAX keep a per-group value
multiset and recompute the extremum only when the current extremum's
last copy is retracted; DISTINCT-qualified aggregates keep a count per
distinct value. The shapes with no retractable form — ``median``,
``stddev``/``variance``, ``listagg``, ``any_value``, VARIANT arguments —
share one insert-only :class:`CollectingAccumulator`.
:func:`retractable_call` is the gate for the stateful rule: it admits the
shapes whose accumulator retracts *and* reproduces recomputation exactly.

Inside DISTINCT, two values are one exactly when
:func:`~repro.engine.types.group_key` gives them one key: NULLs are
skipped, every NaN is the same value, VARIANT values compare by canonical
JSON.

:func:`fold` is the one grouping fold: it buckets rows by group key in
one columnar pass (:func:`~repro.engine.types.group_key_columns`) and
feeds each group's argument slice to its accumulators. DISTINCT is the
same fold keyed by every column, with no calls.

``count_if`` is the Snowflake conditional count used in the paper's
Listing 1.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from repro.engine import types as t
from repro.engine.types import SqlType, Value
from repro.errors import EvaluationError, InternalError


class RetractionError(InternalError):
    """A retraction did not match previously inserted state — the delta
    stream and the accumulator have diverged (e.g. an out-of-order or
    replayed interval). The stateful rule treats this as a signal to drop
    the state store and fall back to recomputation, never to guess."""


class AggStateInconsistency(RetractionError):
    """A retraction names a group the fold state does not hold, or takes
    a group below zero rows. Like :class:`~repro.errors.
    RowIdIntegrityError`, this marks state that must not be trusted."""


# ---------------------------------------------------------------------------
# Accumulators
# ---------------------------------------------------------------------------

class Accumulator:
    """One aggregate's per-group state.

    The protocol: ``insert(value)`` folds one input row in, ``retract
    (value)`` removes a previously inserted row, and ``finalize()``
    yields the aggregate's current SQL value.
    ``insert_arrays``/``retract_arrays`` fold a whole columnar slice at
    once; the base implementations loop, concrete accumulators override
    them with bulk arithmetic where the function allows (``sum``/``len``
    run at C speed).

    Every retractable operation is O(1) (amortized for MIN/MAX, whose
    extremum rescan is paid only when the current extremum's last copy is
    retracted), so folding a delta is O(|delta|) regardless of group
    sizes.
    """

    __slots__ = ()

    def insert(self, value: Value) -> None:
        raise NotImplementedError

    def retract(self, value: Value) -> None:
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
    """SUM(x): running total plus the non-NULL count that decides the
    all-NULL → NULL result. ``insert`` is a left fold in arrival order,
    and so is ``insert_arrays``: it continues ``sum()`` from the running
    total, so folding slices one after another is ``sum()`` of all their
    non-NULL values in order — exactly, up to Python 3.12's ``sum()``
    compensating FLOAT rounding within each call."""

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

    def finalize(self) -> Value:
        return self.total if self.count else None

    def insert_arrays(self, values: Sequence[Value]) -> None:
        nulls = values.count(None)
        if nulls:
            values = [value for value in values if value is not None]
        self.total = sum(values, self.total)
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

    @staticmethod
    def pick(values: Sequence[Value], want_max: bool) -> Value:
        """The extremum of non-empty ``values``: the first of the values
        no other value beats (incomparable pairs never replace)."""
        best = values[0]
        for value in values[1:]:
            result = t.compare(value, best)
            if result is not None and result != 0 \
                    and (result > 0) == want_max:
                best = value
        return best

    def rescan(self) -> None:
        """Recompute the cached extremum from the values present."""
        self.best = (self.pick(list(self.counts), self.want_max)
                     if self.counts else None)

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
            self.rescan()

    def finalize(self) -> Value:
        return self.best


#: The one NaN every NaN counts as inside DISTINCT: ``NaN != NaN``, so
#: two NaN objects would otherwise be two dict keys. The checkpoint codec
#: decodes every NaN to this same object, so restored state keeps
#: counting into one key.
_NAN = math.nan


class DistinctAccumulator(Accumulator):
    """COUNT/SUM/AVG(DISTINCT x) over hashable values: a count per
    distinct value. The distinct total is maintained on 0→1 / 1→0
    transitions — but only for sum/avg, so ``count(distinct x)`` works
    over non-summable values (TEXT, TIMESTAMP, ...)."""

    __slots__ = ("function", "counts", "total", "_summing")

    def __init__(self, function: str):
        self.function = function
        self.counts: dict = {}   # value -> number of copies present
        self.total = 0
        self._summing = function in ("sum", "avg")

    def insert(self, value: Value) -> None:
        if value is None:
            return
        if value != value:
            value = _NAN
        present = self.counts.get(value, 0)
        self.counts[value] = present + 1
        if not present and self._summing:
            self.total += value

    def retract(self, value: Value) -> None:
        if value is None:
            return
        if value != value:
            value = _NAN
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

    def finalize(self) -> Value:
        distinct = len(self.counts)
        if self.function == "count":
            return distinct
        if not distinct:
            return None
        if self.function == "sum":
            return self.total
        return self.total / distinct  # avg


class CollectingAccumulator(Accumulator):
    """The shapes with no retractable form: ``median``, ``stddev`` /
    ``variance``, ``listagg``, ``any_value``, and any call over VARIANT
    values (unhashable, so no multiset can hold them). Keeps the non-NULL
    values in arrival order — under DISTINCT, the first value of each
    :func:`~repro.engine.types.group_key` — and computes the aggregate
    from them at finalize."""

    __slots__ = ("function", "values")

    def __init__(self, function: str, distinct: bool):
        self.function = function
        #: DISTINCT: group key -> first value; otherwise a list.
        self.values: dict | list = {} if distinct else []

    def insert(self, value: Value) -> None:
        if value is None:
            return
        if isinstance(self.values, dict):
            self.values.setdefault(t.group_key((value,)), value)
        else:
            self.values.append(value)

    def retract(self, value: Value) -> None:
        raise RetractionError(
            f"{self.function} keeps no retractable state")

    def collected(self) -> list:
        """The values kept, in arrival order."""
        if isinstance(self.values, dict):
            return list(self.values.values())
        return self.values

    def finalize(self) -> Value:
        values = self.collected()
        function = self.function
        if function == "count":
            return len(values)
        if not values:
            # SQL: aggregates over an empty (post-NULL-filter) set yield NULL.
            return None
        if function == "sum":
            return sum(values)
        if function == "avg":
            return sum(values) / len(values)
        if function in ("min", "max"):
            return ExtremeAccumulator.pick(values, function == "max")
        if function == "any_value":
            # Deterministic choice (first in input order) so incremental
            # and full refreshes agree whenever input order is stable.
            return values[0]
        if function == "median":
            ordered = sorted(values)
            middle = len(ordered) // 2
            if len(ordered) % 2:
                return ordered[middle]
            return (ordered[middle - 1] + ordered[middle]) / 2
        if function in ("stddev", "variance"):
            if len(values) < 2:
                return None  # sample statistics need two observations
            mean = sum(values) / len(values)
            variance = (sum((value - mean) ** 2 for value in values)
                        / (len(values) - 1))
            return variance if function == "variance" else variance ** 0.5
        # listagg: sorted by value, so incremental and full refreshes
        # agree regardless of arrival order.
        return ",".join(str(value) for value in sorted(values, key=repr))


#: Functions only :class:`CollectingAccumulator` computes.
_COLLECTED_FUNCTIONS = frozenset(
    {"any_value", "median", "stddev", "variance", "listagg"})
_FUNCTIONS = _COLLECTED_FUNCTIONS | {"count", "count_if", "sum", "avg",
                                     "min", "max"}


def make_accumulator(call) -> Accumulator:
    """A fresh accumulator for one aggregate call — an
    :class:`~repro.plan.logical.AggregateCall` or a window aggregate's
    :class:`~repro.plan.logical.WindowCall`."""
    return accumulator_factory(call)()


def accumulator_factory(call) -> Callable[[], Accumulator]:
    """What :func:`make_accumulator` calls to build ``call``'s
    accumulator; a fold resolves it once per call, not once per group."""
    function = call.function
    if function not in _FUNCTIONS:
        raise EvaluationError(f"unknown aggregate function {function}")
    if function == "count" and call.arg is None:
        return CountStarAccumulator
    if function == "count_if":
        return CountIfAccumulator  # DISTINCT does not change a count_if
    if function in _COLLECTED_FUNCTIONS or (
            call.arg.type == SqlType.VARIANT
            and (call.distinct or function != "count")):
        return partial(CollectingAccumulator, function, call.distinct)
    if call.distinct and function in ("count", "sum", "avg"):
        return partial(DistinctAccumulator, function)
    if function == "count":
        return CountAccumulator
    if function == "sum":
        return SumAccumulator
    if function == "avg":
        return AvgAccumulator
    # min / max: DISTINCT is a no-op, the multiset handles duplicates.
    return partial(ExtremeAccumulator, function == "max")


def retractable_call(call) -> bool:
    """Whether an :class:`~repro.plan.logical.AggregateCall` may be
    maintained statefully: its accumulator retracts, and state carried
    across refreshes reproduces recomputation exactly. FLOAT running sums
    drift from the scan-order sum by rounding, FLOAT extremum comparisons
    depend on arrival order (NaN compares equal to everything), and TEXT
    does not sum — the same conservatism the paper applies to FLOAT
    grouping keys (section 3.4)."""
    if isinstance(make_accumulator(call), CollectingAccumulator):
        return False
    arg_type = None if call.arg is None else call.arg.type
    if call.function in ("sum", "avg"):
        return arg_type not in (SqlType.FLOAT, SqlType.TEXT)
    if call.function in ("min", "max"):
        return arg_type != SqlType.FLOAT
    # count(x) / count_if only test NULLness or truth: any type is exact.
    return True


# ---------------------------------------------------------------------------
# The grouping fold
# ---------------------------------------------------------------------------

class Group:
    """One group of a fold: its key representative (the key values of its
    first row), its row count, and one accumulator per call."""

    __slots__ = ("key_values", "count", "accumulators")

    def __init__(self, key_values: tuple,
                 accumulators: tuple[Accumulator, ...] = ()):
        self.key_values = key_values
        self.count = 0
        self.accumulators = accumulators

    def output(self, keep_empty: bool = False) -> Optional[tuple]:
        """The group's output row — key values, then each call's value —
        or None for a group with no rows (unless ``keep_empty``: the
        implicit group of a scalar aggregate always has a row)."""
        if not self.count and not keep_empty:
            return None
        if not self.accumulators:
            return self.key_values
        return self.key_values + tuple([accumulator.finalize()
                                        for accumulator in self.accumulators])


def group_rows(key_arrays: Sequence[Sequence],
               count: int) -> dict[tuple, list[int]]:
    """Row indices per group key, groups in first-occurrence order: one
    columnar pass over the key arrays. No key arrays is one group, even
    over no rows — a scalar aggregate always yields one row."""
    if not key_arrays:
        return {(): list(range(count))}
    buckets: dict[tuple, list[int]] = {}
    for index, key in enumerate(t.group_key_columns(key_arrays, count)):
        members = buckets.get(key)
        if members is None:
            buckets[key] = [index]
        else:
            members.append(index)
    return buckets


def fold(groups: dict[tuple, Group], calls: Sequence,
         key_arrays: Sequence[Sequence],
         arg_arrays: Sequence[Optional[Sequence]], count: int,
         retract: bool = False, touched: Optional[dict] = None,
         keep_empty: bool = False) -> None:
    """Fold ``count`` rows into ``groups`` (group key -> :class:`Group`).

    ``key_arrays`` and ``arg_arrays`` are the rows' grouping keys and each
    call's argument (None for ``COUNT(*)``), evaluated over the rows
    already. Rows are bucketed by key, then each group's argument slice
    goes to its accumulators in one ``insert_arrays`` (or
    ``retract_arrays``) call. An inserted row of an unseen key opens a
    group; a retracted one raises :class:`AggStateInconsistency`. When
    given, ``touched`` records the output row each touched group had
    before this fold (see :meth:`Group.output`).
    """
    buckets = group_rows(key_arrays, count)
    fresh = [key for key in buckets if key not in groups]
    if fresh:
        if retract:
            raise AggStateInconsistency(
                f"retraction into unknown group {fresh[0]!r}")
        # Representatives (each new key's first row), gathered columnar.
        representatives: Iterable[tuple] = [()]
        if key_arrays:
            firsts = [buckets[key][0] for key in fresh]
            representatives = zip(*[[array[index] for index in firsts]
                                    for array in key_arrays])
        factories = [accumulator_factory(call) for call in calls]
        for key, key_values in zip(fresh, representatives):
            groups[key] = Group(key_values, tuple(
                [factory() for factory in factories]))
    for key, indices in buckets.items():
        group = groups[key]
        if touched is not None and key not in touched:
            touched[key] = group.output(keep_empty)
        if retract:
            group.count -= len(indices)
            if group.count < 0:
                raise AggStateInconsistency(
                    f"group {group.key_values!r} retracted below zero rows")
        else:
            group.count += len(indices)
        if not calls:
            continue
        whole = len(indices) == count
        for accumulator, args in zip(group.accumulators, arg_arrays):
            if args is None:
                values: Sequence = indices  # COUNT(*): length only
            elif whole:
                values = args
            else:
                values = [args[index] for index in indices]
            if retract:
                accumulator.retract_arrays(values)
            else:
                accumulator.insert_arrays(values)
