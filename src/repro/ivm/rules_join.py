"""Derivative rules for joins.

**Inner joins** use the bilinear rule:

.. math::

   Δ_I(Q ⋈ R) = Δ_I Q ⋈ R|_{I_0} \\; + \\; Q|_{I_1} ⋈ Δ_I R

(delta-left against the *old* right, new left against delta-right), which
accounts for every changed pair exactly once. A delta row can only pair
with rows sharing its equi-key, so when the other side is a table scan
smaller deltas read just those rows of it, probed from partition key
indexes (:meth:`~repro.ivm.differentiator.Differentiator.probe`) —
with a dimension table on one side, a dimension update reads the fact
rows under its keys, not the fact table. Otherwise the kernel hash-joins
the delta against the whole endpoint; a cross or non-equi join always
does.

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

from repro.engine.executor import _equi_keys, join_relations
from repro.engine.expressions import compile_group_key_columnar
from repro.engine.relation import Relation
from repro.ivm.changes import Action, ChangeSet
from repro.ivm.differentiator import (OUTER_JOIN_REWRITE, Differentiator,
                                      diff_relations, restrict, rule,
                                      semi_join_keys)
from repro.plan import logical as lp


@rule("Join")
def delta_join(differ: Differentiator, plan: lp.Join) -> ChangeSet:
    if plan.kind in ("inner", "cross"):
        return _delta_inner(differ, plan)
    if differ.outer_join_strategy == OUTER_JOIN_REWRITE:
        return _delta_outer_rewrite(differ, plan)
    return _delta_outer_direct(differ, plan)


def _signed_join(differ: Differentiator, plan: lp.Join,
                 left: Relation, right: Relation,
                 action: Action) -> ChangeSet:
    """Inner-join two relations and sign every output pair with
    ``action`` (the joined columns are adopted as the delta's). Reuses
    the executor's hash-join kernel."""
    differ.stats.join_input_rows += len(left) + len(right)
    inner = lp.Join("inner", plan.left, plan.right, plan.condition)
    joined = join_relations(inner, left, right, differ.ctx)
    return ChangeSet.signed(action, joined.row_ids, joined.columns)


def _by_sign(schema, delta: ChangeSet):
    """The delta's deletions, then its insertions, each as ``(action,
    relation)`` — a side with no rows is skipped."""
    for action in (Action.DELETE, Action.INSERT):
        row_ids, columns = delta.under(action)
        if row_ids:
            yield action, Relation.from_columns(schema, columns, row_ids)


def _joinable(differ: Differentiator, which: str, side: lp.PlanNode,
              side_keys, delta: ChangeSet, delta_keys) -> Relation:
    """``side`` at endpoint ``which`` as ``delta`` joins it: just the rows
    sharing one of its equi-keys when those can be probed (a NULL key
    matches nothing), else the whole endpoint."""
    def keys() -> set:
        found = set(_equi_keys(delta_keys, delta, differ.ctx))
        found.discard(None)
        return found

    probed = differ.probe(which, side, side_keys, len(delta), keys)
    if probed is not None:
        return probed
    return differ.old(side) if which == "old" else differ.new(side)


def _delta_inner(differ: Differentiator, plan: lp.Join) -> ChangeSet:
    """The bilinear rule; a cross join is the same rule with no keys."""
    delta_left = differ.delta(plan.left)
    delta_right = differ.delta(plan.right)
    keys = lp.extract_equi_keys(plan)
    parts = []
    if delta_left:
        right_old = _joinable(differ, "old", plan.right, keys.right_keys,
                              delta_left, keys.left_keys)
        parts += [_signed_join(differ, plan, changed, right_old, action)
                  for action, changed in _by_sign(plan.left.schema,
                                                  delta_left)]
    if delta_right:
        left_new = _joinable(differ, "new", plan.left, keys.left_keys,
                             delta_right, keys.right_keys)
        parts += [_signed_join(differ, plan, left_new, changed, action)
                  for action, changed in _by_sign(plan.right.schema,
                                                  delta_right)]
    return ChangeSet.concat(parts)


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
            affected.update(key_fn(delta.columns, len(delta)))

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
    parts = [_delta_inner(differ, plan)]
    if plan.kind in ("left", "full"):
        parts.append(diff_relations(
            _pad_rows(differ, plan, "left", differ.old),
            _pad_rows(differ, plan, "left", differ.new)))
    if plan.kind in ("right", "full"):
        parts.append(diff_relations(
            _pad_rows(differ, plan, "right", differ.old),
            _pad_rows(differ, plan, "right", differ.new)))
    return ChangeSet.concat(parts)


#: Row-id prefix of the null-padded rows each outer side contributes
#: (:func:`repro.ivm.rowid.outer_left_id` / ``outer_right_id``).
_PAD_PREFIX = {"left": "lo:", "right": "ro:"}


def _pad_rows(differ: Differentiator, plan: lp.Join, side: str,
              endpoint) -> Relation:
    """π_{other=NULL}(Q ▷ R) at one endpoint: the ``side`` input's rows
    with no match, null-padded — the rows of the ``side`` outer join whose
    id carries that side's pad prefix."""
    left, right = endpoint(plan.left), endpoint(plan.right)
    differ.stats.join_input_rows += len(left) + len(right)
    joined = join_relations(
        lp.Join(side, plan.left, plan.right, plan.condition),
        left, right, differ.ctx)
    prefix = _PAD_PREFIX[side]
    return restrict(joined, [row_id.startswith(prefix)
                             for row_id in joined.row_ids])
