"""Derivative rules for the linear operators.

Scan, Filter, Project, UnionAll, and Flatten are *linear*: the delta of
the operator is the operator applied to the delta of its input. These are
the cheapest derivatives — cost strictly proportional to the size of the
input delta — and correspond to the paper's claim that "variable costs
scale linearly with the amount of changed data in the sources" (section
3.3.2).

The rules operate directly on the change set's struct-of-arrays store
(``actions`` / ``row_ids`` / ``rows`` parallel arrays) and evaluate their
expressions once per delta through the vectorized compiler, over the
delta's rows transposed to column arrays: filtering and projecting a
100k-row delta builds the output arrays in bulk without one evaluator
call, or one ``Change`` object, per row.

Sort and Limit deliberately have **no** rules: plans containing them take
the FULL refresh path (the properties checker reports them as
non-incrementalizable), mirroring the operator coverage of section 3.3.2.
"""

from __future__ import annotations

from itertools import compress

from repro.engine.expressions import (compile_expression_columnar,
                                      compile_row_columnar)
from repro.errors import NotIncrementalizableError
from repro.ivm import rowid
from repro.ivm.aggstate import transpose_rows
from repro.ivm.changes import ChangeSet
from repro.ivm.differentiator import Differentiator, rule
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
    """
    child = differ.delta(plan.child)
    if not child:
        return ChangeSet()
    predicate = compile_expression_columnar(plan.predicate, differ.ctx)
    mask = predicate(transpose_rows(child.rows), len(child))
    kept = [value is True for value in mask]
    return ChangeSet.from_arrays(list(compress(child.actions, kept)),
                                 list(compress(child.row_ids, kept)),
                                 list(compress(child.rows, kept)))


@rule("Project")
def delta_project(differ: Differentiator, plan: lp.Project) -> ChangeSet:
    """Δ(π_e(Q)) = π_e(ΔQ): projection is 1:1 on rows; actions and ids
    pass through by array reuse — only the row array is rebuilt."""
    child = differ.delta(plan.child)
    if not child:
        return ChangeSet()
    columns = compile_row_columnar(plan.exprs, differ.ctx)(
        transpose_rows(child.rows), len(child))
    return ChangeSet.from_arrays(list(child.actions), list(child.row_ids),
                                 list(zip(*columns)))


@rule("UnionAll")
def delta_unionall(differ: Differentiator, plan: lp.UnionAll) -> ChangeSet:
    """Δ(Q₀ ∪ ... ∪ Qₙ) = ΔQ₀ ∪ ... ∪ ΔQₙ with branch-tagged row ids."""
    union_id = rowid.union_id
    output = ChangeSet()
    for branch, child in enumerate(plan.inputs):
        delta = differ.delta(child)
        output.actions.extend(delta.actions)
        output.row_ids.extend(union_id(branch, row_id)
                              for row_id in delta.row_ids)
        output.rows.extend(delta.rows)
    return output


@rule("Flatten")
def delta_flatten(differ: Differentiator, plan: lp.Flatten) -> ChangeSet:
    """Δ(FLATTEN(Q)) = FLATTEN(ΔQ): each changed input row expands into
    its elements with the same action (section 3.3.2 lists LATERAL
    FLATTEN as incrementally supported)."""
    child = differ.delta(plan.child)
    if not child:
        return ChangeSet()
    values = compile_expression_columnar(plan.input_expr, differ.ctx)(
        transpose_rows(child.rows), len(child))
    flatten_id = rowid.flatten_id
    output = ChangeSet()
    for action, row_id, row, value in zip(child.actions, child.row_ids,
                                          child.rows, values):
        if not isinstance(value, list):
            continue
        for index, element in enumerate(value):
            output.actions.append(action)
            output.row_ids.append(flatten_id(row_id, index))
            output.rows.append(row + (element, index))
    return output


@rule("Sort")
def delta_sort(differ: Differentiator, plan: lp.Sort) -> ChangeSet:
    raise NotIncrementalizableError(
        "ORDER BY is not incrementally maintainable; use FULL refresh mode")


@rule("Limit")
def delta_limit(differ: Differentiator, plan: lp.Limit) -> ChangeSet:
    raise NotIncrementalizableError(
        "LIMIT is not incrementally maintainable; use FULL refresh mode")
