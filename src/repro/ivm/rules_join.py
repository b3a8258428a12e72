"""Derivative rules for joins.

**Inner joins** use the bilinear rule:

.. math::

   Δ_I(Q ⋈ R) = Δ_I Q ⋈ R|_{I_0} \\; + \\; Q|_{I_1} ⋈ Δ_I R

(delta-left against the *old* right, new left against delta-right), which
accounts for every changed pair exactly once. Join work is proportional to
the delta sizes because the kernel hash-joins on the equi-keys.

**Outer joins** (section 5.5.1) support two strategies:

* ``rewrite`` — the original decomposition into an inner join plus
  null-padded anti-joins: ``Δ(Q ⟕ R) = Δ(Q ⋈ R) + Δ(π_{R=NULL}(Q ▷ R))``.
  As the paper observes, this duplicates the Q and R terms, and the
  duplication compounds with nesting ("the duplication grows exponentially
  with the number of outer joins in the plan"). Our memoization bounds the
  blow-up within a single level, but the anti-join terms still force full
  endpoint evaluations of both inputs.
* ``direct`` — the production approach: factor out common terms by
  recomputing only the **affected keys**. The keys mentioned by either
  input delta are collected, both endpoint states are restricted to those
  keys, the outer join is evaluated on the restrictions, and the two
  results are diffed by row id. Work is proportional to the data under
  affected keys, never the full inputs.

Both strategies produce identical consolidated change sets (a property
test asserts this); the ablation benchmark ``bench_t7`` measures the cost
difference.
"""

from __future__ import annotations

from repro.engine.executor import join_relations
from repro.engine.expressions import compile_group_key_columnar
from repro.engine.relation import Relation
from repro.errors import NotIncrementalizableError
from repro.ivm.aggstate import transpose_rows
from repro.ivm.changes import Action, ChangeSet
from repro.ivm.differentiator import (OUTER_JOIN_REWRITE, Differentiator,
                                      diff_relations, rule, semi_join_keys)
from repro.plan import logical as lp


@rule("Join")
def delta_join(differ: Differentiator, plan: lp.Join) -> ChangeSet:
    if plan.kind == "inner":
        return _delta_inner(differ, plan)
    if plan.kind == "cross":
        return _delta_cross(differ, plan)
    if differ.outer_join_strategy == OUTER_JOIN_REWRITE:
        return _delta_outer_rewrite(differ, plan)
    return _delta_outer_direct(differ, plan)


def _relation_of_action(schema, delta: ChangeSet, action: Action) -> Relation:
    """The delta's rows under one action, as a relation (built straight
    from the struct-of-arrays store — no per-change objects)."""
    row_ids = []
    rows = []
    for change_action, row_id, row in zip(delta.actions, delta.row_ids,
                                          delta.rows):
        if change_action is action:
            row_ids.append(row_id)
            rows.append(row)
    return Relation(schema, rows, row_ids)


def _signed_join(differ: Differentiator, plan: lp.Join,
                 left: Relation, right: Relation, action: Action,
                 output: ChangeSet) -> None:
    """Inner-join two relations, emitting every output pair under
    ``action`` (one bulk array extension). Reuses the executor's
    hash-join kernel."""
    differ.stats.join_input_rows += len(left) + len(right)
    inner = lp.Join("inner", plan.left, plan.right, plan.condition)
    joined = join_relations(inner, left, right, differ.ctx)
    output.actions.extend([action] * len(joined))
    output.row_ids.extend(joined.row_ids)
    output.rows.extend(joined.rows)


def _delta_inner(differ: Differentiator, plan: lp.Join) -> ChangeSet:
    delta_left = differ.delta(plan.left)
    delta_right = differ.delta(plan.right)
    output = ChangeSet()
    if delta_left:
        right_old = differ.old(plan.right)
        for action in (Action.DELETE, Action.INSERT):
            changed = _relation_of_action(plan.left.schema, delta_left,
                                          action)
            if len(changed):
                _signed_join(differ, plan, changed, right_old, action,
                             output)
    if delta_right:
        left_new = differ.new(plan.left)
        for action in (Action.DELETE, Action.INSERT):
            changed = _relation_of_action(plan.right.schema, delta_right,
                                          action)
            if len(changed):
                _signed_join(differ, plan, left_new, changed, action,
                             output)
    return output


def _delta_cross(differ: Differentiator, plan: lp.Join) -> ChangeSet:
    """Cross joins follow the same bilinear rule with no keys."""
    return _delta_inner(differ, plan)


# ---------------------------------------------------------------------------
# Outer joins — direct derivative (affected-key recompute)
# ---------------------------------------------------------------------------

def _delta_outer_direct(differ: Differentiator, plan: lp.Join) -> ChangeSet:
    keys = lp.extract_equi_keys(plan)
    delta_left = differ.delta(plan.left)
    delta_right = differ.delta(plan.right)
    if not delta_left and not delta_right:
        return ChangeSet()
    if not keys.left_keys:
        # Non-equi outer join: no key to localize on; fall back to a full
        # endpoint diff (still correct, cost ∝ |Q| + |R|).
        return diff_relations(differ.old(plan), differ.new(plan))

    left_key_fn = compile_group_key_columnar(keys.left_keys, differ.ctx)
    right_key_fn = compile_group_key_columnar(keys.right_keys, differ.ctx)
    affected: set[tuple] = set()
    for key_fn, delta in ((left_key_fn, delta_left),
                          (right_key_fn, delta_right)):
        if delta:  # an empty delta has no columns to evaluate over
            affected.update(key_fn(transpose_rows(delta.rows), len(delta)))

    left_old = semi_join_keys(differ.old(plan.left), left_key_fn, affected)
    left_new = semi_join_keys(differ.new(plan.left), left_key_fn, affected)
    right_old = semi_join_keys(differ.old(plan.right), right_key_fn, affected)
    right_new = semi_join_keys(differ.new(plan.right), right_key_fn, affected)

    differ.stats.join_input_rows += (len(left_old) + len(right_old)
                                     + len(left_new) + len(right_new))
    old_result = join_relations(plan, left_old, right_old, differ.ctx)
    new_result = join_relations(plan, left_new, right_new, differ.ctx)
    return diff_relations(old_result, new_result)


# ---------------------------------------------------------------------------
# Outer joins — rewrite derivative (inner join + anti-join padding)
# ---------------------------------------------------------------------------

def _delta_outer_rewrite(differ: Differentiator, plan: lp.Join) -> ChangeSet:
    """The inner+anti decomposition: differentiate the inner join, then
    differentiate the null-padded anti-join term(s) by diffing their
    endpoint evaluations. This repeats the Q and R terms — the performance
    problem section 5.5.1 describes."""
    output = ChangeSet()
    output.extend(_delta_inner(differ, plan))

    left_width = len(plan.left.schema)
    right_width = len(plan.right.schema)

    if plan.kind in ("left", "full"):
        old_pads = _left_pad_rows(differ, plan, differ.old(plan.left),
                                  differ.old(plan.right), right_width)
        new_pads = _left_pad_rows(differ, plan, differ.new(plan.left),
                                  differ.new(plan.right), right_width)
        output.extend(diff_relations(old_pads, new_pads))

    if plan.kind in ("right", "full"):
        old_pads = _right_pad_rows(differ, plan, differ.old(plan.left),
                                   differ.old(plan.right), left_width)
        new_pads = _right_pad_rows(differ, plan, differ.new(plan.left),
                                   differ.new(plan.right), left_width)
        output.extend(diff_relations(old_pads, new_pads))
    return output


def _left_pad_rows(differ: Differentiator, plan: lp.Join, left: Relation,
                   right: Relation, right_width: int) -> Relation:
    """π_{R=NULL}(L ▷ R): left rows with no match, null-padded."""
    differ.stats.join_input_rows += len(left) + len(right)
    joined = join_relations(
        lp.Join("left", plan.left, plan.right, plan.condition),
        left, right, differ.ctx)
    pads = Relation(plan.schema)
    for row_id, row in joined.pairs():
        if row_id.startswith("lo:"):
            pads.append(row_id, row)
    return pads


def _right_pad_rows(differ: Differentiator, plan: lp.Join, left: Relation,
                    right: Relation, left_width: int) -> Relation:
    differ.stats.join_input_rows += len(left) + len(right)
    joined = join_relations(
        lp.Join("right", plan.left, plan.right, plan.condition),
        left, right, differ.ctx)
    pads = Relation(plan.schema)
    for row_id, row in joined.pairs():
        if row_id.startswith("ro:"):
            pads.append(row_id, row)
    return pads
