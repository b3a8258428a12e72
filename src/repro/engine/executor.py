"""The relational executor.

Evaluates a bound logical plan against a :class:`SnapshotResolver`,
producing a :class:`~repro.engine.relation.Relation` whose row ids follow
the deterministic derivation of :mod:`repro.ivm.rowid`. Because full
evaluation and incremental evaluation derive identical ids, a FULL refresh,
a REINITIALIZE, and a long chain of INCREMENTAL refreshes all converge on
byte-identical table states — the property the paper's randomized
production validation (section 6.1) checks.

There is one execution path: an operator table (``_OPERATORS``) in which
every plan node turns its children's **batch streams** — iterators of
``Relation`` batches — into its own. Filter, Project and FLATTEN map
their kernels over batches; LIMIT and ``ORDER BY ... LIMIT k`` pull
lazily and stop early (a bounded top-k keeps at most ``k`` rows); UNION
ALL chains its branch streams; GROUP BY, scalar aggregates and DISTINCT
fold batch by batch into one groups dict through the grouping fold of
:mod:`repro.engine.aggregates` — the fold the incremental aggregate
rules run too; joins, windows and unbounded sorts drain their inputs.
:func:`evaluate` is that stream with every scan read whole (the relation
cache, ``scan_pruned``'s zone maps, a transaction's overlay), drained
into one relation; :func:`stream_evaluate` is the same stream with every
scan read one micro-partition at a time, which is how a cursor serves a
large scan, or a GROUP BY over one, holding one partition (or the
groups) rather than the table.

Every kernel evaluates its expressions **vector-at-a-time**: it reads
``Relation.columns`` and runs each expression once over whole column
arrays through the vectorized compiler (:func:`compile_expression_columnar`)
— one tight loop per expression node per batch, never one evaluator call
per row or group. Join keys, sort keys, grouping keys, aggregate and
window arguments are value arrays gathered by row index; a join records
``(left, right)`` index matches and gathers its output columns by index,
and UNION ALL rewrites only row ids. FLATTEN is the one producer whose
unit of work is a row. Every sort — ORDER BY, window partitions, top-k —
goes through one ordering kernel, :class:`~repro.engine.window.Ordering`,
which sorts row indices by key. The interpreter (``Expression.eval``,
selected by ``force_interpreted``) is the reference semantics.

Filters directly over scans additionally push simple column-vs-literal
bounds into the scan — ``scan_pruned`` for a whole read, each
partition's ``might_match`` for a streamed one — letting zone-mapped
micro-partitions be skipped wholesale. Pruning only ever removes rows the predicate would reject, so
output rows, order, and row ids are unchanged; :func:`scan_pruning_stats`
reports the partitions-scanned/skipped split so EXPLAIN can surface it.
"""

from __future__ import annotations

from itertools import chain, compress as _itercompress
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.engine import types as t
from repro.engine.aggregates import Group, fold
from repro.engine.expressions import (BoundParameter, ColumnRef, Comparison,
                                      Expression, IsNull, Literal,
                                      DEFAULT_CONTEXT, EvalContext,
                                      compile_expression_columnar,
                                      compile_group_key_columnar,
                                      compile_row_columnar, conjuncts,
                                      emits_tristate, gather_columns)
from repro.engine.relation import Relation, SnapshotResolver
from repro.engine.window import Ordering, evaluate_window_calls
from repro.errors import InternalError, ReproError, UserError
from repro.ivm import rowid
from repro.plan import logical as lp


def evaluate(plan: lp.PlanNode, resolver: SnapshotResolver,
             ctx: EvalContext = DEFAULT_CONTEXT) -> Relation:
    """Evaluate ``plan`` against ``resolver``'s snapshot: the operator
    stream with every scan read whole, drained into one relation."""
    return _drain(plan.schema, _Run(resolver, ctx, False).stream(plan))


def stream_evaluate(plan: lp.PlanNode, resolver: SnapshotResolver,
                    ctx: EvalContext = DEFAULT_CONTEXT) -> Iterator[Relation]:
    """Evaluate ``plan`` lazily: the same operator stream as
    :func:`evaluate`, with every scan read one micro-partition at a time.

    Draining it yields exactly :func:`evaluate`'s rows, ids and order
    (except that a FLOAT ``sum`` folded partition by partition may round
    differently in the last place under Python 3.12's compensated
    ``sum()``). Scans are pinned, and materializing operators (aggregates, DISTINCT,
    joins, windows, unbounded sorts) run, when the stream is created; row
    preserving operators and LIMIT run as batches are pulled.
    """
    return _Run(resolver, ctx, True).stream(plan)


#: A pushed-down scan bound: either ``("cmp", column_index, op, value)``
#: for ``col <op> literal`` conjuncts (op in ``= != <> < <= > >=``) or
#: ``("null", column_index, negated)`` for ``col IS [NOT] NULL``. Storage
#: may use zone maps to skip partitions where no row can satisfy the
#: conjunction.
ScanBound = tuple

_SAFE_CMP_OPS = {"=", "!=", "<>", "<", "<=", ">", ">="}
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=",
            "!=": "!=", "<>": "<>"}


def _const_operand(expr: Expression,
                   ctx: Optional[EvalContext]) -> tuple[bool, object]:
    """``(True, value)`` when ``expr`` is a constant at scan time: a
    Literal, or — when the execution context is available — a bind
    parameter whose slot carries a value. Prepared statements thus prune
    exactly like the equivalent literal query."""
    if isinstance(expr, Literal):
        return True, expr.value
    if (ctx is not None and isinstance(expr, BoundParameter)
            and expr.slot < len(ctx.params)):
        return True, ctx.params[expr.slot]
    return False, None


def extract_scan_bounds(predicate: Expression,
                        ctx: Optional[EvalContext] = None) -> list[ScanBound]:
    """Decompose a filter predicate into prunable scan bounds.

    Pruning is only sound when skipping a partition cannot change *any*
    observable behaviour — including runtime errors the predicate would
    raise on the skipped rows (a conjunct like ``1 % b = 0`` raises on
    ``b = 0`` rows even when another conjunct already excludes them). So
    bounds are returned only when **every** top-level conjunct is a
    provably non-raising shape — ``col <op> constant`` (either side; a
    constant is a literal, or a bound parameter value when ``ctx`` is
    supplied), ``col IS [NOT] NULL``, or a bare TRUE literal — and the
    per-partition check (:meth:`Partition.might_match`) additionally
    verifies that each compared column's zone kind matches the constant,
    so ``t.compare`` cannot raise on any row of a skipped partition. Any
    other conjunct disables pruning for the whole predicate (empty
    result).
    """
    bounds: list[ScanBound] = []
    for part in conjuncts(predicate):
        if isinstance(part, Comparison) and part.op in _SAFE_CMP_OPS:
            left, right, op = part.left, part.right, part.op
            if _const_operand(left, ctx)[0] and isinstance(right, ColumnRef):
                left, right, op = right, left, _FLIPPED[op]
            is_const, value = _const_operand(right, ctx)
            if not (isinstance(left, ColumnRef) and is_const):
                return []
            if (isinstance(value, bool)
                    or not isinstance(value, (int, float, str))):
                return []  # bools and non-scalars don't zone-map cleanly
            if isinstance(value, float) and value != value:
                return []  # NaN comparisons keep t.compare's odd semantics
            bounds.append(("cmp", left.index, op, value))
            continue
        if isinstance(part, IsNull) and isinstance(part.operand, ColumnRef):
            bounds.append(("null", part.operand.index, part.negated))
            continue
        if isinstance(part, Literal) and part.value is True:
            continue  # trivial conjunct (e.g. from conjoin of nothing)
        return []  # anything else might raise on skipped rows: no pruning
    return bounds


def scan_pruning_stats(plan: lp.PlanNode, resolver: SnapshotResolver,
                       ctx: Optional[EvalContext] = None,
                       ) -> list[tuple[str, int, int, int]]:
    """Zone-map pruning statistics for every Filter-over-Scan in ``plan``.

    Returns ``(table, total, scanned, skipped)`` tuples — how many of the
    table's micro-partitions the columnar scan reads versus skips under
    the filter's pushed-down bounds — in plan traversal order. Tables
    whose resolver has no partition-granular access, and filters whose
    predicate yields no sound bounds, report zero skipped (every
    partition scanned). This is what ``EXPLAIN`` surfaces so the pruning
    behaviour of the columnar scan path is observable without tracing the
    executor.
    """
    scan_partitions = getattr(resolver, "scan_partitions", None)
    if scan_partitions is None:
        return []
    stats: list[tuple[str, int, int, int]] = []
    for node in plan.walk():
        if not (isinstance(node, lp.Filter) and isinstance(node.child, lp.Scan)):
            continue
        table = node.child.table
        try:
            partitions = list(scan_partitions(table))
        except ReproError:
            # Best-effort reporting: a table that cannot be read right
            # now (e.g. an uninitialized dynamic table) contributes no
            # stats rather than failing the caller (EXPLAIN).
            continue
        total = len(partitions)
        bounds = extract_scan_bounds(node.predicate, ctx)
        if bounds:
            scanned = sum(1 for partition in partitions
                          if partition.might_match(bounds))
        else:
            scanned = total
        stats.append((table, total, scanned, total - scanned))
    return stats


def _compress(block_columns: Sequence[Sequence], row_ids: Sequence[str],
              mask: Sequence, strict: bool = False) -> tuple[list, list]:
    """Select the rows whose mask entry is True (columnar filter kernel).

    SQL selects only rows where the predicate is exactly TRUE — never
    NULL, never a merely truthy value — so unless the predicate provably
    emits three-valued booleans only (``strict``, from
    :func:`emits_tristate`; NULL is falsy to ``itertools.compress``), the
    mask is normalized first. Each column is then gathered with the
    C-level ``itertools.compress``.
    """
    selected = mask if strict else [value is True for value in mask]
    ids = (row_ids if isinstance(row_ids, list) else list(row_ids))
    kept = list(_itercompress(ids, selected))
    if len(kept) == len(ids):
        return list(block_columns), ids
    return ([list(_itercompress(column, selected))
             for column in block_columns], kept)


# ---------------------------------------------------------------------------
# The operator table: every plan node turns its children's batch streams
# into its own
# ---------------------------------------------------------------------------

#: A stream of relation batches, all under one plan node's schema.
Batches = Iterator[Relation]


class _Run:
    """One evaluation: the snapshot, the execution context, and whether
    its scans are read one micro-partition at a time."""

    __slots__ = ("resolver", "ctx", "partitioned")

    def __init__(self, resolver: SnapshotResolver, ctx: EvalContext,
                 partitioned: bool):
        self.resolver = resolver
        self.ctx = ctx
        self.partitioned = partitioned

    def stream(self, plan: lp.PlanNode) -> Batches:
        operator = _OPERATORS.get(type(plan))
        if operator is None:
            raise InternalError(f"no executor for {type(plan).__name__}")
        return operator(plan, self)

    def read(self, plan: lp.Scan, bounds: Sequence[ScanBound]) -> Batches:
        """A scan's batches, requalified under the plan's schema (alias
        binding) and zone-map pruned under ``bounds``. Partitioned: one
        batch per micro-partition, column arrays shared by reference,
        pinned now and read as the stream is pulled. Otherwise — or when
        the resolver has no partition-granular access — the whole table
        as one batch, read now through ``scan_pruned`` (given bounds and
        a resolver that has it) or ``scan``."""
        resolver = self.resolver
        scan_partitions = (getattr(resolver, "scan_partitions", None)
                           if self.partitioned else None)
        if scan_partitions is not None:
            partitions = scan_partitions(plan.table)
            if bounds:
                partitions = (partition for partition in partitions
                              if partition.might_match(bounds))
            return (Relation.from_columns(plan.schema, partition.columns,
                                          list(partition.row_ids))
                    for partition in partitions)
        scan_pruned = getattr(resolver, "scan_pruned", None)
        if bounds and scan_pruned is not None:
            relation = scan_pruned(plan.table, bounds)
        else:
            relation = resolver.scan(plan.table)
        return _one(relation.with_schema(plan.schema))


def _one(relation: Relation) -> Batches:
    return iter((relation,))


def _drain(schema, batches: Batches) -> Relation:
    """Every batch of a stream as one relation — the batch itself when
    there is only one."""
    first = next(batches, None)
    second = next(batches, None) if first is not None else None
    if second is None:
        return first if first is not None else Relation.concat(schema, ())
    return Relation.concat(schema, chain((first, second), batches))


def _scan(plan: lp.Scan, run: _Run) -> Batches:
    return run.read(plan, ())


def _values(plan: lp.Values, run: _Run) -> Batches:
    return _one(Relation.from_columns(
        plan.schema, [list(column) for column in plan.columns],
        [f"v:{index}" for index in range(plan.count)]))


def _filter(plan: lp.Filter, run: _Run) -> Batches:
    child = plan.child
    if isinstance(child, lp.Scan):
        batches = run.read(child, extract_scan_bounds(plan.predicate,
                                                      run.ctx))
    else:
        batches = run.stream(child)
    return map(filter_kernel(plan, run.ctx), batches)


def _project(plan: lp.Project, run: _Run) -> Batches:
    return map(project_kernel(plan, run.ctx), run.stream(plan.child))


def _flatten(plan: lp.Flatten, run: _Run) -> Batches:
    return map(flatten_kernel(plan, run.ctx), run.stream(plan.child))


def _limit(plan: lp.Limit, run: _Run) -> Batches:
    if plan.count < 0:
        raise UserError(
            f"LIMIT count must be non-negative, got {plan.count}")
    child = plan.child
    # ORDER BY ... LIMIT k: a bounded top-k over the sort's input stream.
    # The Sort may sit directly below, or below the final Project (how
    # the builder binds ORDER BY over unprojected columns).
    project = child if isinstance(child, lp.Project) else None
    sort = child if project is None else project.child
    if isinstance(sort, lp.Sort):
        return _topk_batches(run.stream(sort.child), sort, plan.count,
                             run.ctx, project)
    return _limit_batches(plan, run.stream(child))


def _union_all(plan: lp.UnionAll, run: _Run) -> Batches:
    # Branch streams are *created* eagerly — every branch's snapshot is
    # pinned now — then drained one after the other.
    return _union_batches(plan, [run.stream(child) for child in plan.inputs])


def _aggregate(plan: lp.Aggregate, run: _Run) -> Batches:
    return _one(aggregate_relation(plan, run.stream(plan.child), run.ctx))


def _distinct(plan: lp.Distinct, run: _Run) -> Batches:
    return _one(distinct_relation(plan.schema, run.stream(plan.child)))


def _join(plan: lp.Join, run: _Run) -> Batches:
    left = _drain(plan.left.schema, run.stream(plan.left))
    right = _drain(plan.right.schema, run.stream(plan.right))
    return _one(join_relations(plan, left, right, run.ctx))


def _window(plan: lp.Window, run: _Run) -> Batches:
    child = _drain(plan.child.schema, run.stream(plan.child))
    return _one(window_relation(plan, child, run.ctx))


def _sort(plan: lp.Sort, run: _Run) -> Batches:
    child = _drain(plan.child.schema, run.stream(plan.child))
    count = len(child)
    keys = compile_row_columnar([expr for expr, __ in plan.keys],
                                run.ctx)(child.columns, count)
    ordered = Ordering(child.columns, child.row_ids, keys,
                       [flag for __, flag in plan.keys]).sort(range(count))
    return _one(Relation.from_columns(
        plan.schema, [_gather(column, ordered) for column in child.columns],
        _gather(child.row_ids, ordered)))


_OPERATORS: dict[type, Callable[..., Batches]] = {
    lp.Scan: _scan, lp.Values: _values, lp.Filter: _filter,
    lp.Project: _project, lp.Flatten: _flatten, lp.Limit: _limit,
    lp.UnionAll: _union_all, lp.Aggregate: _aggregate,
    lp.Distinct: _distinct, lp.Join: _join, lp.Window: _window,
    lp.Sort: _sort,
}


def _union_batches(plan: lp.UnionAll, streams: list[Batches]) -> Batches:
    """Concatenate branch streams, rewriting row ids under the branch's
    union ordinal."""
    union_id = rowid.union_id
    for branch, batches in enumerate(streams):
        for batch in batches:
            yield Relation.from_columns(
                plan.schema, batch.columns,
                [union_id(branch, row_id) for row_id in batch.row_ids])


def _limit_batches(plan: lp.Limit, batches: Batches) -> Batches:
    remaining = plan.count
    while remaining > 0:  # checked before each pull: no partition wasted
        batch = next(batches, None)
        if batch is None:
            return
        head = Relation.from_columns(
            plan.schema, [column[:remaining] for column in batch.columns],
            batch.row_ids[:remaining])
        remaining -= len(head)
        yield head


def _topk_batches(batches: Batches, sort: lp.Sort, count: int,
                  ctx: EvalContext, project: Optional[lp.Project],
                  ) -> Batches:
    """``ORDER BY ... LIMIT count``: keep the ``count`` best rows seen so
    far as column arrays (their ORDER BY key arrays alongside), sort each
    batch together with them through the ordering kernel, and keep the
    first ``count`` — then emit one batch in exactly the sort-then-limit
    order. ``project`` is the final projection when one sits between the
    Limit and the Sort, applied to the ``count`` surviving rows."""
    if not count:
        return
    keys_fn = compile_row_columnar([expr for expr, __ in sort.keys], ctx)
    descending = [flag for __, flag in sort.keys]
    columns: list[list] = [[] for __ in sort.schema]
    keys: list[list] = [[] for __ in sort.keys]
    row_ids: list[str] = []
    for batch in batches:
        if not len(batch):
            continue
        columns = [[*kept, *new] for kept, new in zip(columns, batch.columns)]
        keys = [[*kept, *new] for kept, new
                in zip(keys, keys_fn(batch.columns, len(batch)))]
        row_ids = [*row_ids, *batch.row_ids]
        top = Ordering(columns, row_ids, keys, descending).sort(
            range(len(row_ids)), count)
        columns = [_gather(column, top) for column in columns]
        keys = [_gather(values, top) for values in keys]
        row_ids = _gather(row_ids, top)
    if not row_ids:
        return
    relation = Relation.from_columns(sort.schema, columns, row_ids)
    if project is not None:
        relation = project_kernel(project, ctx)(relation)
    yield relation


# ---------------------------------------------------------------------------
# Shared operator kernels (the IVM rules reuse these on delta inputs)
# ---------------------------------------------------------------------------

#: A compiled row-preserving operator: input relation -> output relation.
Kernel = Callable[[Relation], Relation]


def filter_kernel(plan: lp.Filter, ctx: EvalContext) -> Kernel:
    """The one Filter kernel — behind SELECT, streamed cursors, and the
    row matching of UPDATE / DELETE alike: keeps the rows on which the
    predicate is exactly TRUE, ids and order preserved. The predicate is
    compiled once here; the kernel then filters any number of inputs (the
    whole relation, or one micro-partition after another)."""
    predicate = compile_expression_columnar(plan.predicate, ctx)
    strict = emits_tristate(plan.predicate)
    schema = plan.schema

    def filter_relation(child: Relation) -> Relation:
        mask = predicate(child.columns, len(child))
        columns, ids = _compress(child.columns, child.row_ids, mask, strict)
        return Relation.from_columns(schema, columns, ids)
    return filter_relation


def project_kernel(plan: lp.Project, ctx: EvalContext) -> Kernel:
    """The one Project kernel: one output column per projected
    expression, evaluated over the child's column arrays; row ids pass
    through. Compiled once, applied per input like :func:`filter_kernel`."""
    columns_fn = compile_row_columnar(plan.exprs, ctx)
    schema = plan.schema

    def project_relation(child: Relation) -> Relation:
        return Relation.from_columns(
            schema, columns_fn(child.columns, len(child)), child.row_ids)
    return project_relation


#: How many candidate pairs a join condition is evaluated over at once.
#: Bounds the gathered columns of a non-equi (or residual) join to
#: O(batch) — never the L x R candidate space — while keeping each
#: vectorized evaluation long enough to amortize its per-batch overhead.
JOIN_PAIR_BATCH = 1 << 16


def _equi_keys(exprs: Sequence[Expression], relation: Relation,
               ctx: EvalContext) -> list:
    """One hashable equi-join key per row of ``relation`` (the key
    expressions evaluated once over its columns); None where any key
    value is NULL, since NULL keys never match."""
    count = len(relation)
    arrays = compile_row_columnar(exprs, ctx)(relation.columns, count)
    keys = t.group_key_columns(arrays, count)
    for array in arrays:
        if None in array:
            keys = [None if value is None else key
                    for value, key in zip(array, keys)]
    return keys


def _matching(candidates: Iterator[tuple[int, Sequence[int]]],
              condition: Expression, left: Relation, right: Relation,
              ctx: EvalContext) -> Iterator[tuple[int, Sequence[int]]]:
    """Restrict each left row's candidate right rows to those on which
    ``condition`` is TRUE. ``candidates`` and the result are
    ``(left_index, right_indices)`` per left row, in left order.

    The condition is evaluated vectorized over gathered candidate pairs,
    ``JOIN_PAIR_BATCH`` at a time (whole left rows; at least one), so
    memory stays O(|L| + |R| + |out|).
    """
    predicate = compile_expression_columnar(condition, ctx)
    # The condition reads the concatenated row: left columns first.
    needed = condition.column_indices()
    left_width = len(left.columns)
    right_needed = {index - left_width for index in needed}

    def flush(batch: list) -> Iterator[tuple[int, Sequence[int]]]:
        lefts = [left_index for left_index, indices in batch
                 for __ in indices]
        rights = [index for __, indices in batch for index in indices]
        mask = predicate(
            gather_columns(left.columns, needed, lefts)
            + gather_columns(right.columns, right_needed, rights),
            len(lefts))
        hits = [value is True for value in mask]
        position = 0
        for left_index, indices in batch:
            end = position + len(indices)
            yield left_index, list(_itercompress(indices,
                                                 hits[position:end]))
            position = end

    batch: list = []
    pairs = 0
    for candidate in candidates:
        batch.append(candidate)
        pairs += len(candidate[1])
        if pairs >= JOIN_PAIR_BATCH:
            yield from flush(batch)
            batch, pairs = [], 0
    yield from flush(batch)


def _gather_padded(column: Sequence, take: Sequence[Optional[int]]) -> list:
    """``column`` at the ``take`` indices; None where the index is None
    (the NULL padding of an outer join's unmatched side)."""
    return [None if index is None else column[index] for index in take]


def _gather(column: Sequence, take: Sequence[int]) -> list:
    return [column[index] for index in take]


def join_relations(plan: lp.Join, left: Relation, right: Relation,
                   ctx: EvalContext) -> Relation:
    """Evaluate any join kind over two materialized inputs.

    Equi-keys and the residual / non-equi condition are evaluated over
    column arrays (:func:`_equi_keys`, :func:`_matching`). The join itself
    only records which ``(left_index, right_index)`` pairs it emits — None
    on the padded side of an unmatched outer row — and the output columns
    are gathered from the inputs' columns by those indices.
    """
    left_ids, right_ids = left.row_ids, right.row_ids
    keys = lp.extract_equi_keys(plan)
    if keys.left_keys:
        # Hash join on the equi-keys; the residual filters the buckets.
        buckets: dict[tuple, list[int]] = {}
        for index, key in enumerate(_equi_keys(keys.right_keys, right, ctx)):
            if key is not None:
                buckets.setdefault(key, []).append(index)
        no_match: Sequence[int] = ()
        candidates = ((index, buckets.get(key, no_match)) for index, key
                      in enumerate(_equi_keys(keys.left_keys, left, ctx)))
        condition = keys.residual
    else:
        # No equi-keys (a cross join has no condition at all): every pair
        # is a candidate for the full condition.
        every_right = range(len(right))
        candidates = ((index, every_right) for index in range(len(left)))
        condition = plan.condition

    keep_unmatched_left = plan.kind in ("left", "full")
    keep_unmatched_right = plan.kind in ("right", "full")
    matched_right: set[int] = set()
    row_ids: list[str] = []
    left_take: list[Optional[int]] = []
    right_take: list[Optional[int]] = []
    if condition is not None:
        candidates = _matching(candidates, condition, left, right, ctx)
    for left_index, matches in candidates:
        if matches:
            left_id = left_ids[left_index]
            for right_index in matches:
                row_ids.append(rowid.join_id(left_id, right_ids[right_index]))
                left_take.append(left_index)
                right_take.append(right_index)
            if keep_unmatched_right:
                matched_right.update(matches)
        elif keep_unmatched_left:
            row_ids.append(rowid.outer_left_id(left_ids[left_index]))
            left_take.append(left_index)
            right_take.append(None)

    if keep_unmatched_right:
        for right_index, right_id in enumerate(right_ids):
            if right_index not in matched_right:
                row_ids.append(rowid.outer_right_id(right_id))
                left_take.append(None)
                right_take.append(right_index)
    # Only an outer join's non-preserved side can hold a None index.
    gather_left = _gather_padded if keep_unmatched_right else _gather
    gather_right = _gather_padded if keep_unmatched_left else _gather
    return Relation.from_columns(
        plan.schema,
        [gather_left(column, left_take) for column in left.columns]
        + [gather_right(column, right_take) for column in right.columns],
        row_ids)


def aggregate_relation(plan: lp.Aggregate, batches: Iterable[Relation],
                       ctx: EvalContext) -> Relation:
    """Evaluate grouped (or scalar) aggregation over the child's batches.

    Grouping keys and aggregate arguments are each evaluated over one
    batch's column arrays, then :func:`~repro.engine.aggregates.fold`
    buckets its rows into the groups seen so far and feeds each group's
    argument slice to its accumulators — so only the groups, never the
    whole input, are held.
    """
    keys_fn = compile_row_columnar(plan.group_exprs, ctx)
    args_fns = [None if call.arg is None
                else compile_expression_columnar(call.arg, ctx)
                for call in plan.aggregates]
    groups: dict[tuple, Group] = {}
    if plan.is_scalar:
        # The implicit group has its row even when no batch arrives.
        fold(groups, plan.aggregates, (),
             [None if fn is None else [] for fn in args_fns], 0)
    for batch in batches:
        count, columns = len(batch), batch.columns
        fold(groups, plan.aggregates, keys_fn(columns, count),
             [None if fn is None else fn(columns, count) for fn in args_fns],
             count)
    return _group_relation(plan.schema, groups, rowid.group_id)


def distinct_relation(schema, batches: Iterable[Relation]) -> Relation:
    """DISTINCT: the aggregation fold keyed by every column, with no
    calls; each row value's first occurrence represents it."""
    groups: dict[tuple, Group] = {}
    for batch in batches:
        fold(groups, (), batch.columns, (), len(batch))
    return _group_relation(schema, groups, rowid.distinct_id)


def _group_relation(schema, groups: dict[tuple, Group],
                    row_id: Callable[[tuple], str]) -> Relation:
    """One output row per group (the scalar aggregate's empty group
    included), ids from the group's key values."""
    rows = [group.output(keep_empty=True) for group in groups.values()]
    columns = ([list(column) for column in zip(*rows)] if rows
               else [[] for __ in schema])
    return Relation.from_columns(
        schema, columns,
        [row_id(group.key_values) for group in groups.values()])


def window_relation(plan: lp.Window, child: Relation, ctx: EvalContext,
                    bound: Optional[int] = None) -> Relation:
    """Evaluate partitioned window calls, appending one column per call.
    Partition keys, ORDER BY keys and call arguments are all computed
    vectorized over the child's columns. Under a rank ``bound`` (a Window
    of one ranking call), only the rows ranked ``<= bound`` get a value;
    the rest carry NULL, which the rank filter's own conjunct rejects."""
    partitions: dict[tuple, list[int]] = {}
    keys = compile_group_key_columnar(plan.partition_exprs, ctx)(
        child.columns, len(child))
    for index, key in enumerate(keys):
        partitions.setdefault(key, []).append(index)
    extra = evaluate_window_calls(plan.calls, child,
                                  list(partitions.values()), ctx, bound)
    return Relation.from_columns(plan.schema, child.columns + extra,
                                 child.row_ids)


def flatten_kernel(plan: lp.Flatten, ctx: EvalContext) -> Kernel:
    """LATERAL FLATTEN: one output row per array element; non-array or NULL
    inputs contribute no rows (Snowflake's default OUTER => FALSE)."""
    input_fn = compile_expression_columnar(plan.input_expr, ctx)
    schema = plan.schema

    def flatten_relation(child: Relation) -> Relation:
        values = input_fn(child.columns, len(child))
        picks: list[int] = []
        ids: list[str] = []
        elements: list = []
        positions: list[int] = []
        for parent, (row_id, value) in enumerate(zip(child.row_ids, values)):
            if not isinstance(value, list):
                continue
            for index, element in enumerate(value):
                picks.append(parent)
                ids.append(rowid.flatten_id(row_id, index))
                elements.append(element)
                positions.append(index)
        columns = [list(map(column.__getitem__, picks))
                   for column in child.columns]
        return Relation.from_columns(schema, columns + [elements, positions],
                                     ids)
    return flatten_relation
