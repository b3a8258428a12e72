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

A **rank filter** (``QUALIFY row_number() | rank() | dense_rank() OVER
(PARTITION BY k ...) <= c``, ``< c`` or ``= c``) restricts the same rule
by its bound: :func:`rank_bound` recognises the shape, and the Filter rule
takes its child delta from :func:`delta_window` under the bound — the same
changed partitions, each evaluated only up to the bound (rows ranked past
it carry NULL, never computed) — then applies the whole predicate, whose
rank conjunct rejects those rows. The Window's whole-partition π₋/π₊ delta
is never consolidated: consolidation sees about ``2c`` rows per changed
partition.

Unpartitioned window functions (empty PARTITION BY) would make every row
one giant "changed partition"; section 3.3.2 scopes incremental support to
*partitioned* window functions, so the properties checker routes
unpartitioned ones to FULL refresh. The rule itself still handles them
correctly (the affected set is the single empty key), which keeps the
ablation benchmark honest.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.executor import window_relation
from repro.engine.expressions import (ColumnRef, Comparison, Literal,
                                      compile_group_key_columnar, conjuncts)
from repro.engine.window import RANKING
from repro.ivm.changes import ChangeSet
from repro.ivm.differentiator import (Differentiator, diff_relations, rule,
                                      semi_join_keys)
from repro.plan import logical as lp

#: A rank conjunct ``literal <op> rank`` read as ``rank <op'> literal``.
_MIRRORED = {">=": "<=", ">": "<", "=": "="}


def rank_bound(plan: lp.Filter) -> Optional[int]:
    """The rank bound ``c`` of a rank filter: ``plan`` filters a
    partitioned Window whose one call is ``row_number``, ``rank`` or
    ``dense_rank``, and its predicate has a top-level conjunct ``call <=
    c``, ``call < c`` (bound ``c - 1``) or ``call = c`` — or the mirrored
    form — over an integer literal. The tightest such bound wins. None for
    every other shape."""
    window = plan.child
    if not (isinstance(window, lp.Window) and window.partition_exprs
            and len(window.calls) == 1
            and window.calls[0].function in RANKING):
        return None
    rank_column = len(window.child.schema)
    bounds = []
    for part in conjuncts(plan.predicate):
        if not isinstance(part, Comparison):
            continue
        op, column, literal = part.op, part.left, part.right
        if isinstance(column, Literal):
            op, column, literal = _MIRRORED.get(op), literal, column
        if (op in ("<=", "<", "=") and isinstance(column, ColumnRef)
                and column.index == rank_column
                and isinstance(literal, Literal)
                and type(literal.value) is int):
            bounds.append(literal.value - 1 if op == "<" else literal.value)
    return min(bounds, default=None)


@rule("Window")
def delta_window(differ: Differentiator, plan: lp.Window,
                 bound: Optional[int] = None) -> ChangeSet:
    """The §5.5.1 window derivative; under a rank ``bound`` (from
    :func:`rank_bound`) each changed partition is ranked only as far as
    the bound, and its rows past it carry NULL."""
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
        return window_relation(plan, rows, differ.ctx, bound)

    # π₋(old) + π₊(new); unchanged rows cancel in consolidation.
    return diff_relations(changed_partitions("old"),
                          changed_partitions("new"))
