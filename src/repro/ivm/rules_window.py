"""Derivative rule for partitioned window functions.

This is a faithful implementation of the rule in section 5.5.1 of the
paper:

.. math::

   Δ_I(ξ_k(Q)) ⟹ π_-(ξ_k(Q|_{I_0} ⋉_k Δ_I Q)) + π_+(ξ_k(Q|_{I_1} ⋉_k Δ_I Q))

"This derivative works by applying the window function to all partitions
that have changed": semi-join each endpoint of Q against the delta on the
partition keys ``k``, evaluate the window function over those partitions,
emit the old rows as deletions (π₋) and the new rows as insertions (π₊).
Rows whose values did not actually change cancel in consolidation, since
window outputs keep their input row's id. When Q is a table scan
partitioned on plain columns and the delta is smaller than the table,
each endpoint is read by probing the partitions' key indexes
(:meth:`~repro.ivm.differentiator.Differentiator.probe`), so a
refresh reads the changed window partitions and nothing else.

"It works for all window functions with PARTITION BY clauses (as long as
ties in ORDER BY are broken repeatably)" — our executor always breaks ties
with a stable row digest (:mod:`repro.engine.window`), satisfying the
precondition.

Unpartitioned window functions (empty PARTITION BY) would make every row
one giant "changed partition"; section 3.3.2 scopes incremental support to
*partitioned* window functions, so the properties checker routes
unpartitioned ones to FULL refresh. The rule itself still handles them
correctly (the affected set is the single empty key), which keeps the
ablation benchmark honest.
"""

from __future__ import annotations

from repro.engine.executor import window_relation
from repro.engine.expressions import compile_group_key_columnar
from repro.ivm.changes import ChangeSet
from repro.ivm.differentiator import (Differentiator, diff_relations, rule,
                                      semi_join_keys)
from repro.plan import logical as lp


@rule("Window")
def delta_window(differ: Differentiator, plan: lp.Window) -> ChangeSet:
    child_delta = differ.delta(plan.child)
    if not child_delta:
        return ChangeSet()

    # Changed partitions: partition keys of every delta row (Q|_I ⋉_k ΔQ),
    # one columnar pass over the delta's columns.
    key_fn = compile_group_key_columnar(plan.partition_exprs, differ.ctx)
    affected = set(key_fn(child_delta.columns, len(child_delta)))

    def changed_partitions(which: str):
        rows = differ.probe(which, plan.child, plan.partition_exprs,
                            len(child_delta), lambda: affected)
        if rows is None:
            endpoint = (differ.old(plan.child) if which == "old"
                        else differ.new(plan.child))
            rows = semi_join_keys(endpoint, key_fn, affected)
        return window_relation(plan, rows, differ.ctx)

    # π₋(old) + π₊(new); unchanged rows cancel in consolidation.
    return diff_relations(changed_partitions("old"),
                          changed_partitions("new"))
