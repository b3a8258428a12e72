"""The per-DT aggregate state store: O(|delta|) aggregate maintenance.

Section 5.5.3 of the paper: "none of our derivatives so far reuse the
state from preceding data timestamps already stored in the DT. They all
work by computing changes purely in terms of the sources." For grouped
aggregation that stance makes every refresh cost O(|affected groups|):
the affected-group rule recomputes each touched group at both interval
endpoints, so one inserted row into a million-row group re-aggregates a
million rows. This module is the state-carrying alternative: a
:class:`AggStateStore` holds one retractable accumulator set per output
group (:mod:`repro.engine.aggregates`), and the stateful rules in
:mod:`repro.ivm.rules_agg` fold the child delta straight into it — one
insert/retract per delta row — emitting the output diff from the touched
accumulators alone, with no endpoint recompute.

Carrying state across refreshes makes *interval continuity* load-bearing:
the accumulators describe the child exactly at the data timestamp the
store was last advanced to, so a fold is only sound when the incoming
interval's ``old`` endpoint equals that timestamp. :meth:`AggStateStore.
begin_refresh` enforces this — an out-of-order or overlapping interval, a
changed plan fingerprint (DDL epoch, query text, UDF registry), or a
previous refresh that began but never committed (the dirty flag) all
cause the store to drop its state and reinitialize lazily rather than
silently corrupt, and anomalies detected *during* a fold (a retraction
with no matching insert — the :class:`~repro.engine.aggregates.
RetractionError` / :class:`~repro.errors.RowIdIntegrityError` class of
corruption) invalidate the store and fall back to recomputation for that
refresh.

Because the implicit group of a scalar aggregate is just one more
accumulator set (that never vanishes), statefulness also lifts the
section 3.3.2 restriction: ``SELECT COUNT(*) FROM t`` is incrementally
maintainable here.

:func:`force_stateless` pins the old endpoint-recompute path (the paper's
production semantics) for reference testing and the ablation benchmark.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence

from repro.engine import types as t
from repro.engine.aggregates import (Accumulator, RetractionError,
                                     make_accumulator, retractable_call)
from repro.engine.expressions import (EvalContext, compile_expression_columnar,
                                      compile_row_columnar)
from repro.engine.relation import Relation
from repro.engine.types import SqlType
from repro.errors import InternalError
from repro.ivm import rowid
from repro.ivm.changes import Action, Change, ChangeSet
from repro.plan import logical as lp
from repro.util.parallel import (MIN_PARALLEL_ROWS, chunk_spans, fanout_map,
                                 fanout_pool)


class AggStateInconsistency(InternalError):
    """The delta stream contradicts the stored accumulators (retraction of
    a row the state never saw, a group count below zero). Like
    :class:`~repro.errors.RowIdIntegrityError`, this marks state that must
    not be trusted; the stateful rule invalidates the store and recomputes."""


# ---------------------------------------------------------------------------
# The endpoint-recompute ablation switch
# ---------------------------------------------------------------------------

_FORCE_STATELESS = False


def stateless_forced() -> bool:
    """Whether :func:`force_stateless` is active."""
    return _FORCE_STATELESS


@contextmanager
def force_stateless():
    """Pin the aggregate rules to the endpoint-recompute path (the paper's
    stateless production semantics), ignoring any state store. Reference
    semantics for the equivalence property test and the baseline of the
    stateful-aggregation ablation benchmark. Refreshes run under this
    switch do not advance any store, so a store re-enabled afterwards
    self-heals via the interval-continuity check."""
    global _FORCE_STATELESS
    saved = _FORCE_STATELESS
    _FORCE_STATELESS = True
    try:
        yield
    finally:
        _FORCE_STATELESS = saved


# ---------------------------------------------------------------------------
# Which plan nodes can be maintained statefully
# ---------------------------------------------------------------------------

#: Key/row types whose grouping representative can differ between equal
#: keys (1 vs 1.0, NaN, variants), which would make the stored rows and
#: row ids diverge from scan-order recomputation.
_INEXACT_KEY_TYPES = (SqlType.FLOAT, SqlType.VARIANT)


def stateful_aggregate_supported(plan: lp.Aggregate) -> tuple[bool, str]:
    """Whether an Aggregate node can take the stateful fold path; returns
    ``(supported, reason-why-not)``."""
    for expr in plan.group_exprs:
        if expr.type in _INEXACT_KEY_TYPES:
            return False, (f"{expr.type} grouping keys have order-dependent "
                           "representatives")
    for call in plan.aggregates:
        if not retractable_call(call):
            return False, f"{call!r} has no exact retractable accumulator"
    return True, ""


def stateful_distinct_supported(plan: lp.Distinct) -> tuple[bool, str]:
    """Whether a Distinct node can take the count-per-value path."""
    for name, sql_type in zip(plan.schema.names, plan.schema.types):
        if sql_type in _INEXACT_KEY_TYPES:
            return False, (f"column {name} is {sql_type}: distinct "
                           "representatives are order-dependent")
    return True, ""


def refresh_strategy(plan: lp.PlanNode) -> list[tuple[lp.PlanNode, str, str]]:
    """Per aggregate-class node: ``(node, "stateful" | "recompute",
    reason)``. Static plan property, surfaced by ``EXPLAIN``."""
    strategies = []
    for node in plan.walk():
        if isinstance(node, lp.Aggregate):
            supported, reason = stateful_aggregate_supported(node)
        elif isinstance(node, lp.Distinct):
            supported, reason = stateful_distinct_supported(node)
        else:
            continue
        strategies.append(
            (node, "stateful" if supported else "recompute", reason))
    return strategies


# ---------------------------------------------------------------------------
# Per-node state
# ---------------------------------------------------------------------------

def _parallel_spans(count: int) -> Optional[list[tuple[int, int]]]:
    """Contiguous chunk spans for fanning a ``count``-row columnar slice
    out to the refresh's partition pool — or None when no pool is
    installed / the slice is too small to be worth splitting."""
    pool = fanout_pool()
    if pool is None or count < 2 * MIN_PARALLEL_ROWS:
        return None
    spans = chunk_spans(count, pool.workers)
    return spans if len(spans) > 1 else None


def _chunked_eval(site: str, fn, columns: Sequence[Sequence], count: int,
                  spans: list[tuple[int, int]]) -> list:
    """Evaluate a compiled columnar function chunk-by-chunk on the
    partition pool, concatenating the per-span results in span order —
    the compiled functions are pure per-row maps, so the concatenation is
    element-for-element identical to one whole-slice call."""
    def run(span: tuple[int, int]) -> list:
        start, stop = span
        return fn([column[start:stop] for column in columns], stop - start)

    parts = fanout_map(site, run, spans)
    out: list = []
    for part in parts:
        out.extend(part)
    return out


def _chunked_eval_rows(site: str, fn, columns: Sequence[Sequence],
                       count: int, spans: list[tuple[int, int]]) -> list:
    """Like :func:`_chunked_eval` for compiled functions returning one
    array *per expression* (``compile_row_columnar``): the per-span
    results concatenate array-wise."""
    def run(span: tuple[int, int]) -> list:
        start, stop = span
        return fn([column[start:stop] for column in columns], stop - start)

    parts = fanout_map(site, run, spans)
    # The compiled functions may hand back tuples; copy into lists so
    # the span results concatenate regardless.
    out = [list(array) for array in parts[0]]
    for part in parts[1:]:
        for array, extra in zip(out, part):
            array.extend(extra)
    return out


class _Group:
    """One output group: its key representative, raw row count, and one
    accumulator per aggregate call."""

    __slots__ = ("key_values", "count", "accumulators")

    def __init__(self, key_values: tuple, accumulators: list[Accumulator]):
        self.key_values = key_values
        self.count = 0
        self.accumulators = accumulators


class AggregateNodeState:
    """Accumulator state for one Aggregate node.

    ``groups`` maps the NULL-safe group key to a :class:`_Group`;
    :meth:`fold` applies a consolidated child delta (deletes retract,
    inserts insert) and returns the output diff of the touched groups.
    A scalar aggregate keeps its single implicit group alive at zero rows
    (SQL: the empty aggregate still yields one row).
    """

    def __init__(self, plan: lp.Aggregate):
        self.plan = plan
        self.groups: dict[tuple, _Group] = {}
        self.initialized = False
        #: Structural signature of the node, set by the store (keying
        #: defense in depth).
        self.signature = ""

    # -- construction --------------------------------------------------------

    def _fresh_accumulators(self) -> list[Accumulator]:
        return [make_accumulator(call) for call in self.plan.aggregates]

    def initialize(self, child: Relation, ctx: EvalContext) -> None:
        """Build the state from a full scan of the child at the interval
        start (paid once; every later refresh folds deltas only). Under a
        partition pool the one-big-child-scan splits into contiguous
        chunks folded into per-chunk partial states, combined via each
        accumulator's exact ``merge()``."""
        self.groups.clear()
        columns, count = child.columns, len(child)
        spans = _parallel_spans(count)
        if spans is None:
            self._apply(columns, count, ctx, insert=True, touched=None)
        else:
            self._initialize_parallel(columns, ctx, spans)
        if self.plan.is_scalar and not self.groups:
            self.groups[t.group_key(())] = _Group(
                (), self._fresh_accumulators())
        self.initialized = True

    def _initialize_parallel(self, columns: Sequence[Sequence],
                             ctx: EvalContext,
                             spans: list[tuple[int, int]]) -> None:
        """Chunked initialization: each chunk builds a fresh partial
        state (insert-only, so no retraction can miss a group), then the
        partials merge *in chunk order* — counts add, accumulators
        ``merge()``. The stateful gate admits exact accumulators only, so
        the merge is associative and the combined state — including the
        group-dict insertion order, which is first-occurrence order
        across ordered chunks, exactly as one serial scan would produce —
        is identical to the serial initialization."""
        def scan_chunk(span: tuple[int, int]) -> "AggregateNodeState":
            start, stop = span
            partial = AggregateNodeState(self.plan)
            partial._apply([column[start:stop] for column in columns],
                           stop - start, ctx, insert=True, touched=None)
            return partial

        groups = self.groups
        for partial in fanout_map("agg-init", scan_chunk, spans):
            for key, group in partial.groups.items():
                mine = groups.get(key)
                if mine is None:
                    groups[key] = group  # partials are discarded: adopt
                else:
                    mine.count += group.count
                    for accumulator, other in zip(mine.accumulators,
                                                  group.accumulators):
                        accumulator.merge(other)

    # -- the fold ------------------------------------------------------------

    def fold(self, delta: ChangeSet, ctx: EvalContext) -> ChangeSet:
        """Fold a consolidated child delta into the state — one
        insert/retract per delta row — and emit the output diff computed
        from the touched groups' accumulators alone."""
        touched: dict[tuple, tuple[tuple, Optional[tuple]]] = {}
        for action in (Action.DELETE, Action.INSERT):
            row_ids, columns = delta.under(action)
            self._apply(columns, len(row_ids), ctx,
                        insert=action is Action.INSERT, touched=touched)

        out: list[Change] = []
        scalar = self.plan.is_scalar
        for key, (key_values, old_row) in touched.items():
            group = self.groups.get(key)
            new_row = None
            if group is not None:
                if group.count or scalar:
                    new_row = (tuple(group.key_values)
                               + tuple(accumulator.finalize()
                                       for accumulator in group.accumulators))
                else:
                    del self.groups[key]  # group vanished: reclaim state
            row_id = rowid.group_id(key_values)
            if old_row is None:
                if new_row is not None:
                    out.append(Change(Action.INSERT, row_id, new_row))
            elif new_row is None:
                out.append(Change(Action.DELETE, row_id, old_row))
            elif new_row != old_row:
                out.append(Change(Action.DELETE, row_id, old_row))
                out.append(Change(Action.INSERT, row_id, new_row))
        return ChangeSet(out)

    def _apply(self, columns: Sequence[Sequence], count: int,
               ctx: EvalContext, insert: bool,
               touched: Optional[dict]) -> None:
        """Fold one side of a delta (or the initialization scan): bucket
        the rows by group key columnar-style, then feed each group's
        argument slices to its accumulators via the vectorized
        ``insert_arrays``/``retract_arrays``."""
        if not count:
            return
        plan = self.plan
        groups = self.groups
        #: Large folds chunk their pure columnar passes across the
        #: partition pool (deterministic expressions only: per-row maps,
        #: concatenated in span order, are identical to one full pass).
        spans = _parallel_spans(count)

        # Bucket row indices per group key, one columnar key pass.
        buckets: dict[tuple, tuple[tuple, list[int]]] = {}
        if plan.group_exprs:
            key_fn = compile_row_columnar(plan.group_exprs, ctx)
            if spans is not None and all(expr.is_deterministic
                                         for expr in plan.group_exprs):
                key_arrays = _chunked_eval_rows("fold-keys", key_fn,
                                                columns, count, spans)
            else:
                key_arrays = key_fn(columns, count)
            group_key = t.group_key
            for index, key_values in enumerate(zip(*key_arrays)):
                key = group_key(key_values)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = bucket = (key_values, [])
                bucket[1].append(index)
        else:
            buckets[t.group_key(())] = ((), list(range(count)))

        # One columnar pass per aggregate argument over the whole slice.
        arg_arrays: list[Optional[Sequence]] = []
        for call in plan.aggregates:
            if call.arg is None:
                arg_arrays.append(None)
                continue
            arg_fn = compile_expression_columnar(call.arg, ctx)
            if spans is not None and call.arg.is_deterministic:
                arg_arrays.append(_chunked_eval("fold-args", arg_fn,
                                                columns, count, spans))
            else:
                arg_arrays.append(arg_fn(columns, count))

        for key, (key_values, indices) in buckets.items():
            group = groups.get(key)
            if group is None:
                if not insert:
                    raise AggStateInconsistency(
                        f"retraction into unknown group {key_values!r}")
                group = _Group(key_values, self._fresh_accumulators())
                groups[key] = group
            if touched is not None and key not in touched:
                touched[key] = (group.key_values, self._finalized(group))
            if insert:
                group.count += len(indices)
            else:
                group.count -= len(indices)
                if group.count < 0:
                    raise AggStateInconsistency(
                        f"group {key_values!r} retracted below zero rows")
            for accumulator, arg_array in zip(group.accumulators, arg_arrays):
                if arg_array is None:
                    values: Sequence = indices  # count(*): length only
                elif len(indices) == count:
                    values = arg_array
                else:
                    values = [arg_array[index] for index in indices]
                if insert:
                    accumulator.insert_arrays(values)
                else:
                    accumulator.retract_arrays(values)

    def _finalized(self, group: _Group) -> Optional[tuple]:
        """The group's current output row, or None when it emits none."""
        if not group.count and not self.plan.is_scalar:
            return None
        return (tuple(group.key_values)
                + tuple(accumulator.finalize()
                        for accumulator in group.accumulators))


class DistinctNodeState:
    """Count-per-value state for one Distinct node: each distinct output
    row is a "group" whose accumulator is just its multiplicity."""

    def __init__(self, plan: lp.Distinct):
        self.plan = plan
        #: key -> [count, representative row]
        self.entries: dict[tuple, list] = {}
        self.initialized = False
        self.signature = ""  # set by the store (keying defense in depth)

    def initialize(self, child: Relation, ctx: EvalContext) -> None:
        self.entries.clear()
        columns, count = child.columns, len(child)
        spans = _parallel_spans(count)
        if spans is None:
            for row, key in zip(_iter_rows(columns, count),
                                t.group_key_columns(columns, count)):
                entry = self.entries.get(key)
                if entry is None:
                    self.entries[key] = [1, row]
                else:
                    entry[0] += 1
        else:
            self._initialize_parallel(columns, spans)
        self.initialized = True

    def _initialize_parallel(self, columns: Sequence[Sequence],
                             spans: list[tuple[int, int]]) -> None:
        """Chunked distinct-count scan, merged in chunk order: counts
        add, and the earlier chunk's representative wins — which is the
        serial scan's first-occurrence representative. (The stateful gate
        excludes inexact types, so representatives of equal keys are
        value-identical anyway.)"""
        def scan_chunk(span: tuple[int, int]) -> dict[tuple, list]:
            start, stop = span
            chunk = [column[start:stop] for column in columns]
            size = stop - start
            local: dict[tuple, list] = {}
            for row, key in zip(_iter_rows(chunk, size),
                                t.group_key_columns(chunk, size)):
                entry = local.get(key)
                if entry is None:
                    local[key] = [1, row]
                else:
                    entry[0] += 1
            return local

        entries = self.entries
        for local in fanout_map("distinct-init", scan_chunk, spans):
            for key, entry in local.items():
                mine = entries.get(key)
                if mine is None:
                    entries[key] = entry
                else:
                    mine[0] += entry[0]

    def fold(self, delta: ChangeSet, ctx: EvalContext) -> ChangeSet:
        touched: dict[tuple, Optional[tuple]] = {}
        entries = self.entries

        row_ids, columns = delta.under(Action.DELETE)
        count = len(row_ids)
        for row, key in zip(_iter_rows(columns, count),
                            t.group_key_columns(columns, count)):
            entry = entries.get(key)
            if entry is None or entry[0] <= 0:
                raise AggStateInconsistency(
                    f"retraction of unknown distinct row {row!r}")
            if key not in touched:
                touched[key] = entry[1]
            entry[0] -= 1

        row_ids, columns = delta.under(Action.INSERT)
        count = len(row_ids)
        for row, key in zip(_iter_rows(columns, count),
                            t.group_key_columns(columns, count)):
            entry = entries.get(key)
            if entry is None:
                entries[key] = entry = [0, row]
            if key not in touched:
                touched[key] = entry[1] if entry[0] else None
            if not entry[0]:
                entry[1] = row  # fresh (or vanished-and-reborn) key
            entry[0] += 1

        out: list[Change] = []
        for key, old_row in touched.items():
            entry = entries.get(key)
            new_row = None
            if entry is not None:
                if entry[0]:
                    new_row = entry[1]
                else:
                    del entries[key]
            if old_row is None:
                if new_row is not None:
                    out.append(Change(Action.INSERT,
                                      rowid.distinct_id(new_row), new_row))
            elif new_row is None:
                out.append(Change(Action.DELETE,
                                  rowid.distinct_id(old_row), old_row))
            # both present: the representative is value-identical (the
            # stateful gate excludes inexact types), so nothing changed.
        return ChangeSet(out)


def _iter_rows(columns: Sequence[Sequence], count: int):
    if columns:
        return zip(*columns)
    return iter([()] * count)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class AggStateStore:
    """All aggregate-class node states of one DT, with the lifecycle that
    keeps carrying state sound:

    * **lazy initialization** — node states build themselves from a full
      scan of their child at the interval start, on first stateful use;
    * **interval continuity** — :meth:`begin_refresh` reinitializes when
      the incoming interval's ``old`` token differs from the token the
      store was advanced to (out-of-order / overlapping refresh), when the
      plan fingerprint changed (DDL epoch, ALTERed query, UDF registry),
      or when a previous refresh began but never committed (crash,
      rollback, failed merge — the dirty flag);
    * **explicit invalidation** — FULL / REINITIALIZE refreshes and
      fold-time anomalies drop the state outright.
    """

    def __init__(self):
        self._nodes: dict[tuple[str, int], object] = {}
        self.fingerprint: Optional[tuple] = None
        #: Token (data timestamp) of the interval end the state describes;
        #: None until the first stateful refresh commits.
        self.advanced_to = None
        self._dirty = False
        #: Reasons for every reset, oldest first (observability & tests).
        self.invalidations: list[str] = []
        #: Node states restored from a checkpoint but not yet claimed:
        #: key -> (signature, hydrate). ``hydrate(plan)`` rebuilds the
        #: node state against the live plan, or returns None when the
        #: snapshot no longer matches the plan's aggregate shape (the
        #: node then reinitializes lazily — the same self-healing path as
        #: a signature mismatch). Populated by
        #: :mod:`repro.durability.checkpoint` during recovery.
        self._restored: dict[tuple[str, int], tuple[str, object]] = {}

    # -- refresh lifecycle ---------------------------------------------------

    def begin_refresh(self, fingerprint: tuple, old_token) -> None:
        """Validate the store against the incoming interval; self-heal by
        resetting (lazy reinitialization) rather than folding into state
        that does not describe the interval's old endpoint."""
        if self._dirty:
            self._reset("previous refresh did not commit")
        elif self.fingerprint is not None and self.fingerprint != fingerprint:
            self._reset("plan changed (DDL epoch / query text / registry)")
        elif self.advanced_to is not None and self.advanced_to != old_token:
            self._reset(
                f"out-of-order refresh interval: state advanced to "
                f"{self.advanced_to!r} but interval starts at {old_token!r}")
        self.fingerprint = fingerprint
        self._dirty = True

    def commit_refresh(self, new_token) -> None:
        """The refresh transaction committed: the state now describes the
        interval end."""
        self._dirty = False
        self.advanced_to = new_token

    def abort_refresh(self) -> None:
        """The refresh failed after (possibly partial) folding: drop the
        state. Also reached implicitly — an aborted refresh that never
        calls this leaves the dirty flag set, and the next begin_refresh
        resets."""
        if self._dirty:
            self._reset("refresh aborted")
            self._dirty = False

    def note_no_data(self, new_token) -> None:
        """A NO_DATA refresh advanced the DT's frontier without touching
        any source: the accumulators still describe the (unchanged) child,
        only the token moves."""
        if not self._dirty and self.advanced_to is not None:
            self.advanced_to = new_token

    def invalidate(self, reason: str) -> None:
        """Drop all state; the next stateful refresh reinitializes."""
        self._reset(reason)

    def _reset(self, reason: str) -> None:
        self._nodes.clear()
        self._restored.clear()
        self.advanced_to = None
        self.invalidations.append(reason)

    # -- node access ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def node_state(self, kind: str, sequence: int, plan: lp.PlanNode):
        """The state of the ``sequence``-th ``kind`` node encountered in
        one differentiation pass. Rules claim their handle once per node
        per differentiation, *before* any early return, so dispatch order
        — and hence the key — is a deterministic function of the plan;
        plan *changes* are caught by the store fingerprint check. As
        defense in depth, each state also records its node's structural
        signature: a mismatch (a keying bug, not a plan change) discards
        that state rather than folding into the wrong accumulators."""
        key = (kind, sequence)
        signature = plan.pretty()
        state = self._nodes.get(key)
        if state is not None and state.signature != signature:
            self.invalidations.append(
                f"node state signature mismatch at {key}: discarded")
            state = None
        if state is None:
            pending = self._restored.pop(key, None)
            if pending is not None and pending[0] == signature:
                state = pending[1](plan)
            if state is None:
                if kind == "Aggregate":
                    state = AggregateNodeState(plan)  # type: ignore[arg-type]
                else:
                    state = DistinctNodeState(plan)   # type: ignore[arg-type]
            state.signature = signature
            self._nodes[key] = state
        return state
