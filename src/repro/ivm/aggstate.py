"""The per-DT aggregate state store: O(|delta|) aggregate maintenance.

Section 5.5.3 of the paper: "none of our derivatives so far reuse the
state from preceding data timestamps already stored in the DT. They all
work by computing changes purely in terms of the sources." For grouped
aggregation that stance makes every refresh cost O(|affected groups|):
the affected-group rule recomputes each touched group at both interval
endpoints, so one inserted row into a million-row group re-aggregates a
million rows. This module is the state-carrying alternative: a
:class:`AggStateStore` holds one retractable accumulator set per output
group, and the stateful rules in :mod:`repro.ivm.rules_agg` fold the
child delta straight into it — one insert/retract per delta row —
emitting the output diff from the touched accumulators alone, with no
endpoint recompute. The fold and the accumulators are the engine's own
(:mod:`repro.engine.aggregates`, the same code full evaluation runs);
this module adds what carried state needs: the touched-group diff and
retraction.

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

from repro.engine.aggregates import Group, fold, retractable_call
from repro.engine.expressions import EvalContext, compile_row_columnar
from repro.engine.relation import Relation
from repro.engine.types import SqlType
from repro.ivm import rowid
from repro.ivm.changes import Action, Change, ChangeSet
from repro.plan import logical as lp


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

class AggregateNodeState:
    """Carried fold state for one Aggregate node.

    ``groups`` maps the NULL-safe group key to a
    :class:`~repro.engine.aggregates.Group`, filled by the engine's one
    grouping fold (:func:`~repro.engine.aggregates.fold`). What this class
    adds is what carried state needs: :meth:`fold` applies a consolidated
    child delta (deletes retract, inserts insert) and returns the output
    diff of the touched groups, and :meth:`initialize` builds the state
    once. A scalar aggregate keeps its single implicit group alive at
    zero rows (SQL: the empty aggregate still yields one row).
    """

    #: Id of a group's output row: the key alone names it.
    row_id = staticmethod(rowid.group_id)

    def __init__(self, plan: lp.PlanNode):
        self.plan = plan
        aggregate = isinstance(plan, lp.Aggregate)
        self.calls: Sequence[lp.AggregateCall] = (
            plan.aggregates if aggregate else ())
        self.scalar = aggregate and plan.is_scalar
        #: Evaluated over every folded slice: the group keys, then each
        #: call's argument (a Distinct keys by its input columns as-is).
        self._group_exprs = plan.group_exprs if aggregate else ()
        self._exprs = [*self._group_exprs, *(call.arg for call in self.calls
                                             if call.arg is not None)]
        self.groups: dict[tuple, Group] = {}
        self.initialized = False
        #: Structural signature of the node, set by the store (keying
        #: defense in depth).
        self.signature = ""

    # -- construction --------------------------------------------------------

    def initialize(self, child: Relation, ctx: EvalContext) -> None:
        """Build the state from a full scan of the child at the interval
        start (paid once; every later refresh folds deltas only)."""
        self.groups.clear()
        self._apply(child.columns, len(child), ctx)
        self.initialized = True

    # -- the fold ------------------------------------------------------------

    def fold(self, delta: ChangeSet, ctx: EvalContext) -> ChangeSet:
        """Fold a consolidated child delta into the state — one
        insert/retract per delta row — and emit the output diff computed
        from the touched groups' accumulators alone."""
        touched: dict[tuple, Optional[tuple]] = {}
        for action in (Action.DELETE, Action.INSERT):
            row_ids, columns = delta.under(action)
            self._apply(columns, len(row_ids), ctx,
                        retract=action is Action.DELETE, touched=touched)

        out: list[Change] = []
        for key, old_row in touched.items():
            group = self.groups[key]
            new_row = group.output(self.scalar)
            if new_row is None:
                del self.groups[key]  # group vanished: reclaim state
            row_id = self.row_id(group.key_values)
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
               ctx: EvalContext, retract: bool = False,
               touched: Optional[dict] = None) -> None:
        """Fold one side of a delta (or the initialization scan) through
        the engine's grouping fold."""
        arrays = iter(compile_row_columnar(self._exprs, ctx)(columns, count))
        key_arrays = ([next(arrays) for __ in self._group_exprs]
                      if isinstance(self.plan, lp.Aggregate) else columns)
        fold(self.groups, self.calls, key_arrays,
             [None if call.arg is None else next(arrays)
              for call in self.calls],
             count, retract, touched, self.scalar)


class DistinctNodeState(AggregateNodeState):
    """Carried state for one Distinct node: the same fold keyed by the
    whole row, with no calls — each distinct row is a group whose state
    is its multiplicity, represented by its first occurrence."""

    row_id = staticmethod(rowid.distinct_id)


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
        self._nodes: dict[tuple[str, int], AggregateNodeState] = {}
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
                state = (AggregateNodeState(plan) if kind == "Aggregate"
                         else DistinctNodeState(plan))
            state.signature = signature
            self._nodes[key] = state
        return state
