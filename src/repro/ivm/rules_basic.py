"""Derivative rules for the linear operators.

Scan, Filter, Project, UnionAll, and Flatten are *linear*: the delta of
the operator is the operator applied to the delta of its input. These are
the cheapest derivatives — cost strictly proportional to the size of the
input delta — and correspond to the paper's claim that "variable costs
scale linearly with the amount of changed data in the sources" (section
3.3.2).

A delta is a signed columnar relation, so Filter and Project have no
second implementation here: the rules hand the delta's columns to the
executor's own :func:`~repro.engine.executor.filter_kernel` /
:func:`~repro.engine.executor.project_kernel` (for Filter the ``$ACTION``
column rides along as one more column and is compressed with the rest),
and UNION ALL concatenates its branches' columns. Only FLATTEN, whose unit
of work is a row, goes through the :class:`~repro.ivm.changes.Change`
triple edge.

Sort and Limit deliberately have **no** rules: plans containing them take
the FULL refresh path (the properties checker reports them as
non-incrementalizable), mirroring the operator coverage of section 3.3.2.
"""

from __future__ import annotations

from repro.engine.executor import filter_kernel, project_kernel
from repro.engine.expressions import compile_expression_columnar
from repro.engine.relation import Relation
from repro.errors import NotIncrementalizableError
from repro.ivm import rowid
from repro.ivm.changes import Change, ChangeSet
from repro.ivm.differentiator import Differentiator, rule
from repro.ivm.rules_window import delta_window, rank_bound
from repro.plan import logical as lp


@rule("Scan")
def delta_scan(differ: Differentiator, plan: lp.Scan) -> ChangeSet:
    """Δ(Scan(T)) = the table's change stream over the interval."""
    changes = differ.source.scan_delta(plan.table)
    differ.stats.delta_rows_in += len(changes)
    return changes


@rule("Values")
def delta_values(differ: Differentiator, plan: lp.Values) -> ChangeSet:
    """Literal rows never change."""
    return ChangeSet()


@rule("Filter")
def delta_filter(differ: Differentiator, plan: lp.Filter) -> ChangeSet:
    """Δ(σ_p(Q)) = σ_p(ΔQ): the predicate commutes with the delta.

    A deleted row is kept in the delta iff the predicate held on its old
    contents; since incremental plans contain only deterministic
    expressions (enforced by the properties checker), evaluating the
    predicate on the stored old row is exact.

    Over a rank filter (:func:`~repro.ivm.rules_window.rank_bound`), the
    child delta comes straight from the bounded window rule,
    unconsolidated, with NULL ranks past the bound — the predicate then
    keeps exactly what it would keep of the Window's full delta, and this
    node's consolidation is the only one.
    """
    bound = rank_bound(plan)
    child = (differ.delta(plan.child) if bound is None
             else delta_window(differ, plan.child, bound))
    if not child:
        return ChangeSet()
    # The predicate reads only the child's columns, so the sign column
    # appended after them rides through the kernel's compress untouched.
    kept = filter_kernel(plan, differ.ctx)(Relation.from_columns(
        plan.child.schema, [*child.columns, child.actions], child.row_ids))
    *columns, actions = kept.columns
    return ChangeSet.from_columns(actions, kept.row_ids, columns)


@rule("Project")
def delta_project(differ: Differentiator, plan: lp.Project) -> ChangeSet:
    """Δ(π_e(Q)) = π_e(ΔQ): projection is 1:1 on rows; actions and ids
    pass through by reference — only the columns are rebuilt."""
    child = differ.delta(plan.child)
    if not child:
        return ChangeSet()
    projected = project_kernel(plan, differ.ctx)(Relation.from_columns(
        plan.child.schema, child.columns, child.row_ids))
    return ChangeSet.from_columns(child.actions, child.row_ids,
                                  projected.columns)


@rule("UnionAll")
def delta_unionall(differ: Differentiator, plan: lp.UnionAll) -> ChangeSet:
    """Δ(Q₀ ∪ ... ∪ Qₙ) = ΔQ₀ ∪ ... ∪ ΔQₙ with branch-tagged row ids."""
    union_id = rowid.union_id
    parts = []
    for branch, child in enumerate(plan.inputs):
        delta = differ.delta(child)
        parts.append(ChangeSet.from_columns(
            delta.actions,
            [union_id(branch, row_id) for row_id in delta.row_ids],
            delta.columns))
    return ChangeSet.concat(parts)


@rule("Flatten")
def delta_flatten(differ: Differentiator, plan: lp.Flatten) -> ChangeSet:
    """Δ(FLATTEN(Q)) = FLATTEN(ΔQ): each changed input row expands into
    its elements with the same action (section 3.3.2 lists LATERAL
    FLATTEN as incrementally supported)."""
    child = differ.delta(plan.child)
    if not child:
        return ChangeSet()
    values = compile_expression_columnar(plan.input_expr, differ.ctx)(
        child.columns, len(child))
    flatten_id = rowid.flatten_id
    return ChangeSet(
        Change(action, flatten_id(row_id, index), row + (element, index))
        for (action, row_id, row), value in zip(child, values)
        if isinstance(value, list)
        for index, element in enumerate(value))


@rule("Sort")
def delta_sort(differ: Differentiator, plan: lp.Sort) -> ChangeSet:
    raise NotIncrementalizableError(
        "ORDER BY is not incrementally maintainable; use FULL refresh mode")


@rule("Limit")
def delta_limit(differ: Differentiator, plan: lp.Limit) -> ChangeSet:
    raise NotIncrementalizableError(
        "LIMIT is not incrementally maintainable; use FULL refresh mode")
