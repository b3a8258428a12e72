"""Derivative rules for grouped aggregation and DISTINCT.

Two strategies, chosen per node per refresh:

**Stateful fold** (the default when a state store is attached and the
node's shape has exact retractable accumulators): the child delta is
folded directly into the per-group accumulator state
(:mod:`repro.ivm.aggstate`) — one insert/retract per delta row, O(|delta|)
total — and the output diff is emitted from the touched accumulators
alone, with no endpoint recompute. This goes beyond the paper's
production system (section 5.5.3 notes no derivative reuses per-DT state)
and also lifts the section 3.3.2 scalar-aggregate restriction: the
implicit group of ``SELECT COUNT(*) FROM t`` is just one more accumulator
set that never vanishes.

**Affected-group recompute** (the paper's semantics; the fallback and the
:func:`~repro.ivm.aggstate.force_stateless` reference): collect the group
keys touched by the input delta, recompute those groups at both interval
endpoints, and diff the results by row id — the grouped analogue of the
window-function derivative (section 5.5.1). Group keys over the delta and
the endpoint semi-joins take the columnar path
(:func:`~repro.engine.expressions.compile_group_key_columnar` /
:func:`~repro.engine.types.group_key_columns`) straight over the delta's
columns.

Either way, an aggregate output row's id derives from its group key only
(:func:`repro.ivm.rowid.group_id`), so a group whose value changes becomes
a DELETE+INSERT under one id — an update — and a group whose input rows
all disappear becomes a plain DELETE.
"""

from __future__ import annotations

from repro.engine import types as t
from repro.engine.executor import aggregate_relation, distinct_relation
from repro.engine.expressions import compile_group_key_columnar
from repro.errors import RowIdIntegrityError
from repro.ivm import aggstate
from repro.ivm.aggstate import AggStateInconsistency
from repro.ivm.changes import ChangeSet
from repro.ivm.differentiator import (Differentiator, diff_relations, rule,
                                      semi_join_keys)
from repro.engine.aggregates import RetractionError
from repro.plan import logical as lp

#: Anomalies that mean the store no longer describes the interval's old
#: endpoint; the rule invalidates and falls back to recomputation.
_STATE_ANOMALIES = (AggStateInconsistency, RetractionError,
                    RowIdIntegrityError)


def _stateful_delta(differ: Differentiator, plan: lp.PlanNode, state,
                    child_delta: ChangeSet) -> ChangeSet | None:
    """Try the stateful fold; None means take the recompute path."""
    if state is None:
        return None
    try:
        if not state.initialized:
            state.initialize(differ.old(plan.child), differ.ctx)
        result = state.fold(child_delta, differ.ctx)
    except _STATE_ANOMALIES as anomaly:
        differ.agg_state.invalidate(
            f"{type(anomaly).__name__} during fold: {anomaly}")
        return None
    differ.stats.agg_stateful_folds += 1
    return result


@rule("Aggregate")
def delta_aggregate(differ: Differentiator, plan: lp.Aggregate) -> ChangeSet:
    # Claim the node's state handle BEFORE the empty-delta early return:
    # handles are keyed by encounter order, and every aggregate-class
    # node must claim one per differentiation or a quiet node (empty
    # child delta this interval) would shift later nodes onto the wrong
    # accumulators.
    state = differ.agg_node_state(plan)
    child_delta = differ.delta(plan.child)
    if not child_delta:
        return ChangeSet()

    stateful = _stateful_delta(differ, plan, state, child_delta)
    if stateful is not None:
        return stateful
    differ.stats.agg_recomputes += 1

    # Affected group keys, one columnar pass over the delta arrays.
    key_fn = compile_group_key_columnar(plan.group_exprs, differ.ctx)
    affected = set(key_fn(child_delta.columns, len(child_delta)))

    child_old = semi_join_keys(differ.old(plan.child), key_fn, affected)
    child_new = semi_join_keys(differ.new(plan.child), key_fn, affected)

    old_result = aggregate_relation(plan, child_old, differ.ctx)
    new_result = aggregate_relation(plan, child_new, differ.ctx)
    return diff_relations(old_result, new_result)


@rule("Distinct")
def delta_distinct(differ: Differentiator, plan: lp.Distinct) -> ChangeSet:
    """DISTINCT is grouped aggregation over the whole row with no
    aggregates: affected "groups" are the changed row values, and the
    stateful form is a count per distinct value."""
    state = differ.agg_node_state(plan)  # claim before the early return
    child_delta = differ.delta(plan.child)
    if not child_delta:
        return ChangeSet()

    stateful = _stateful_delta(differ, plan, state, child_delta)
    if stateful is not None:
        return stateful
    differ.stats.agg_recomputes += 1

    key_fn = t.group_key_columns
    affected = set(key_fn(child_delta.columns, len(child_delta)))

    old_result = distinct_relation(
        plan.schema, semi_join_keys(differ.old(plan.child), key_fn, affected))
    new_result = distinct_relation(
        plan.schema, semi_join_keys(differ.new(plan.child), key_fn, affected))
    return diff_relations(old_result, new_result)
