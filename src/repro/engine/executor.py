"""The relational executor.

Evaluates a bound logical plan against a :class:`SnapshotResolver`,
producing a :class:`~repro.engine.relation.Relation` whose row ids follow
the deterministic derivation of :mod:`repro.ivm.rowid`. Because full
evaluation and incremental evaluation derive identical ids, a FULL refresh,
a REINITIALIZE, and a long chain of INCREMENTAL refreshes all converge on
byte-identical table states — the property the paper's randomized
production validation (section 6.1) checks.

The executor is a pull-based engine: each operator materializes its
output. Every operator exists once, as a kernel below built from the
operator's plan node and applied to its materialized input(s);
:func:`evaluate` applies a kernel to the whole input and
:func:`stream_evaluate` applies the *same* kernel to one micro-partition
at a time. Every kernel evaluates its expressions **vector-at-a-time**:
it reads ``Relation.columns`` and runs each expression once over whole
column arrays through the vectorized compiler
(:func:`compile_expression_columnar`) — one tight loop per expression node
per batch, never one evaluator call per row, group or partition. Join
keys, sort keys, grouping keys, aggregate and window arguments are value
arrays gathered by row index; a join records ``(left, right)`` index
matches and gathers its output columns by index, and UNION ALL
concatenates column arrays. GROUP BY, scalar aggregates and DISTINCT run
the one grouping fold of :mod:`repro.engine.aggregates` — the fold the
incremental aggregate rules run too. What stays row-shaped are the
producers whose unit of work is a row: VALUES and FLATTEN assemble their
output rows through the ``Relation`` row view. Every sort — ORDER BY, window
partitions, the streamed top-k — goes through one ordering kernel,
:class:`~repro.engine.window.Ordering`, which sorts row indices by key.
The interpreter (``Expression.eval``, selected by ``force_interpreted``) is
the reference semantics.

Filters directly over scans additionally push simple column-vs-literal
bounds into the storage layer when the resolver supports it
(``scan_pruned``), letting zone-mapped micro-partitions be skipped
wholesale. Pruning only ever removes rows the predicate would reject, so
output rows, order, and row ids are unchanged; :func:`scan_pruning_stats`
reports the partitions-scanned/skipped split so EXPLAIN can surface it.
"""

from __future__ import annotations

from itertools import compress as _itercompress
from typing import Callable, Iterator, Optional, Sequence

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
    """Evaluate ``plan`` against ``resolver``'s snapshot."""
    return _Executor(resolver, ctx).run(plan)


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


class _Executor:
    def __init__(self, resolver: SnapshotResolver, ctx: EvalContext):
        self._resolver = resolver
        self._ctx = ctx

    def run(self, plan: lp.PlanNode) -> Relation:
        method = getattr(self, f"_run_{type(plan).__name__.lower()}", None)
        if method is None:
            raise InternalError(f"no executor for {type(plan).__name__}")
        return method(plan)

    # -- leaves --------------------------------------------------------------

    def _run_scan(self, plan: lp.Scan) -> Relation:
        # Requalify under the plan's schema (alias binding); data unchanged
        # and shared by reference.
        return self._resolver.scan(plan.table).with_schema(plan.schema)

    def _run_values(self, plan: lp.Values) -> Relation:
        relation = Relation(plan.schema)
        for index, row in enumerate(plan.rows):
            relation.append(f"v:{index}", row)
        return relation

    # -- row-preserving operators ---------------------------------------------

    def _run_project(self, plan: lp.Project) -> Relation:
        return project_kernel(plan, self._ctx)(self.run(plan.child))

    def _run_filter(self, plan: lp.Filter) -> Relation:
        return filter_kernel(plan, self._ctx)(self._filter_input(plan))

    def _filter_input(self, plan: lp.Filter) -> Relation:
        """The filter's input, zone-map pruned when it is a direct scan and
        the resolver supports pruned reads."""
        child = plan.child
        if isinstance(child, lp.Scan):
            scan_pruned = getattr(self._resolver, "scan_pruned", None)
            if scan_pruned is not None:
                bounds = extract_scan_bounds(plan.predicate, self._ctx)
                if bounds:
                    return scan_pruned(child.table,
                                       bounds).with_schema(child.schema)
        return self.run(child)

    # -- joins ----------------------------------------------------------------

    def _run_join(self, plan: lp.Join) -> Relation:
        left = self.run(plan.left)
        right = self.run(plan.right)
        return join_relations(plan, left, right, self._ctx)

    # -- union ------------------------------------------------------------------

    def _run_unionall(self, plan: lp.UnionAll) -> Relation:
        union_id = rowid.union_id
        row_ids: list[str] = []
        columns: list[list] = [[] for __ in plan.schema]
        for branch, child in enumerate(plan.inputs):
            relation = self.run(child)
            row_ids.extend(union_id(branch, row_id)
                           for row_id in relation.row_ids)
            for accumulator, column in zip(columns, relation.columns):
                accumulator.extend(column)
        return Relation.from_columns(plan.schema, columns, row_ids)

    # -- aggregation ---------------------------------------------------------

    def _run_aggregate(self, plan: lp.Aggregate) -> Relation:
        child = self.run(plan.child)
        return aggregate_relation(plan, child, self._ctx)

    def _run_distinct(self, plan: lp.Distinct) -> Relation:
        child = self.run(plan.child)
        return distinct_relation(plan.schema, child)

    # -- windows -----------------------------------------------------------------

    def _run_window(self, plan: lp.Window) -> Relation:
        child = self.run(plan.child)
        return window_relation(plan, child, self._ctx)

    # -- flatten ---------------------------------------------------------------

    def _run_flatten(self, plan: lp.Flatten) -> Relation:
        child = self.run(plan.child)
        return flatten_relation(plan, child, self._ctx)

    # -- presentation operators -------------------------------------------------

    def _run_sort(self, plan: lp.Sort) -> Relation:
        child = self.run(plan.child)
        count = len(child)
        keys = compile_row_columnar([expr for expr, __ in plan.keys],
                                    self._ctx)(child.columns, count)
        ordered = Ordering(child.columns, child.row_ids, keys,
                           [flag for __, flag in plan.keys]).sort(range(count))
        return Relation.from_columns(
            plan.schema,
            [[column[index] for index in ordered]
             for column in child.columns],
            [child.row_ids[index] for index in ordered])

    def _run_limit(self, plan: lp.Limit) -> Relation:
        # The executor materializes each child, so LIMIT cannot stream the
        # subtree; it slices the child's column arrays directly.
        return limit_relation(plan.schema, self.run(plan.child), plan.count)


# ---------------------------------------------------------------------------
# Streaming evaluation (per-micro-partition, for the cursor API)
# ---------------------------------------------------------------------------

def stream_evaluate(plan: lp.PlanNode, resolver: SnapshotResolver,
                    ctx: EvalContext = DEFAULT_CONTEXT,
                    ) -> Optional[Iterator[Relation]]:
    """Evaluate ``plan`` lazily, one micro-partition at a time.

    Supports the row-preserving pipeline shapes — a chain of Project /
    Filter / Limit over a single Scan, UNION ALL over such chains (branch
    streams are concatenated), and ``ORDER BY ... LIMIT k`` (a columnar
    bounded top-k over the child stream) — when the resolver exposes
    partition-granular reads (``scan_partitions``). Returns an iterator of
    :class:`Relation` batches, one per surviving partition, or None when
    the plan (a join, aggregate, unbounded sort, ...) or the resolver
    cannot stream; callers then fall back to :func:`evaluate`.

    The stream produces exactly the rows, ids, and order of the
    materialized path because it *is* the materialized path applied per
    partition: each batch goes through the same ``filter_kernel`` /
    ``project_kernel`` / ``limit_relation`` kernels (zone-map partition
    pruning only ever skips rows the predicate rejects), and the top-k
    sorts through the same ordering kernel as ``ORDER BY`` (ORDER BY keys,
    then the stable tie-break digest), so its ``k`` survivors are the
    materialized sort's first ``k``. No list of more than one partition's
    rows is ever built — a sorted-limit cursor holds at most ``k`` rows
    beyond the current partition — which is what lets a cursor serve pages
    of a large scan in O(partition) memory.
    """
    if isinstance(plan, lp.Scan):
        return _scan_batches(plan, resolver, ())

    if isinstance(plan, lp.Filter):
        child = plan.child
        if isinstance(child, lp.Scan):
            batches = _scan_batches(
                child, resolver, extract_scan_bounds(plan.predicate, ctx))
        else:
            batches = stream_evaluate(child, resolver, ctx)
        if batches is None:
            return None
        return map(filter_kernel(plan, ctx), batches)

    if isinstance(plan, lp.Project):
        batches = stream_evaluate(plan.child, resolver, ctx)
        if batches is None:
            return None
        return map(project_kernel(plan, ctx), batches)

    if isinstance(plan, lp.Limit):
        if plan.count < 0:
            return None  # evaluate() reports the error (limit_relation)
        child = plan.child
        # ORDER BY ... LIMIT k: a bounded top-k over the child stream —
        # the sorted-limit cursor never materializes the full
        # result. The Sort may sit directly below, or below the final
        # Project (how the builder binds ORDER BY over unprojected
        # columns).
        project = child if isinstance(child, lp.Project) else None
        sort = child if project is None else project.child
        if isinstance(sort, lp.Sort):
            batches = stream_evaluate(sort.child, resolver, ctx)
            if batches is None:
                return None
            return _topk_batches(batches, sort, plan.count, ctx, project)
        batches = stream_evaluate(child, resolver, ctx)
        if batches is None:
            return None
        return _limit_batches(plan, batches)

    if isinstance(plan, lp.UnionAll):
        # Branch streams are *created* eagerly — pinning every branch's
        # snapshot at execute time, exactly like the materialized path —
        # then drained one after the other, so a unioned SELECT still
        # holds at most one partition's rows. Row ids match
        # ``_run_unionall`` (union_id over the branch ordinal).
        streams = []
        for child in plan.inputs:
            batches = stream_evaluate(child, resolver, ctx)
            if batches is None:
                return None  # one branch can't stream -> materialize all
            streams.append(batches)
        return _union_batches(plan, streams)

    return None  # joins/aggregates/unbounded sorts/etc. must materialize


def _scan_batches(plan: lp.Scan, resolver: SnapshotResolver,
                  bounds: Sequence[ScanBound],
                  ) -> Optional[Iterator[Relation]]:
    """One relation per micro-partition of the scanned table (column
    arrays shared by reference), zone-map pruned under ``bounds``; None
    when the resolver has no partition-granular access."""
    scan_partitions = getattr(resolver, "scan_partitions", None)
    if scan_partitions is None:
        return None
    partitions = scan_partitions(plan.table)
    if bounds:
        partitions = (partition for partition in partitions
                      if partition.might_match(bounds))
    return (Relation.from_columns(plan.schema, partition.columns,
                                  list(partition.row_ids))
            for partition in partitions)


def _union_batches(plan: lp.UnionAll, streams: list) -> Iterator[Relation]:
    """Concatenate branch streams, rewriting row ids under the branch's
    union ordinal (identical to the materialized UNION ALL)."""
    union_id = rowid.union_id
    for branch, batches in enumerate(streams):
        for batch in batches:
            yield Relation.from_columns(
                plan.schema, batch.columns,
                [union_id(branch, row_id) for row_id in batch.row_ids])


def _limit_batches(plan: lp.Limit,
                   batches: Iterator[Relation]) -> Iterator[Relation]:
    remaining = plan.count
    while remaining > 0:  # checked before each pull: no partition wasted
        batch = next(batches, None)
        if batch is None:
            return
        head = limit_relation(plan.schema, batch, remaining)
        remaining -= len(head)
        yield head


def _topk_batches(batches: Iterator[Relation], sort: lp.Sort, count: int,
                  ctx: EvalContext, project: Optional[lp.Project],
                  ) -> Iterator[Relation]:
    """Stream implementation of ``ORDER BY ... LIMIT count``: keep the
    ``count`` best rows seen so far as column arrays (their ORDER BY key
    arrays alongside), sort each batch together with them through the
    ordering kernel, and keep the first ``count`` — then emit one batch in
    exactly the materialized sort-then-limit order. ``project`` is the
    final projection when one sits between the Limit and the Sort —
    applied to the ``count`` surviving rows in output order, matching the
    materialized Project-over-Sort."""
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


def limit_relation(schema, child: Relation, count: int) -> Relation:
    """The first ``count`` rows of ``child`` (column-array slices)."""
    if count < 0:
        raise UserError(f"LIMIT count must be non-negative, got {count}")
    return Relation.from_columns(
        schema, [column[:count] for column in child.columns],
        child.row_ids[:count])


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


def aggregate_relation(plan: lp.Aggregate, child: Relation,
                       ctx: EvalContext) -> Relation:
    """Evaluate grouped (or scalar) aggregation over a materialized input.

    Grouping keys and aggregate arguments are each evaluated once over the
    child's column arrays, then :func:`~repro.engine.aggregates.fold`
    buckets the rows and feeds each group's argument slices to its
    accumulators.
    """
    count = len(child)
    columns = child.columns
    groups: dict[tuple, Group] = {}
    fold(groups, plan.aggregates,
         compile_row_columnar(plan.group_exprs, ctx)(columns, count),
         [None if call.arg is None else
          compile_expression_columnar(call.arg, ctx)(columns, count)
          for call in plan.aggregates], count)
    return _group_relation(plan.schema, groups, rowid.group_id)


def distinct_relation(schema, child: Relation) -> Relation:
    """DISTINCT: the aggregation fold keyed by every column, with no
    calls; each row value's first occurrence represents it."""
    groups: dict[tuple, Group] = {}
    fold(groups, (), child.columns, (), len(child))
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


def flatten_relation(plan: lp.Flatten, child: Relation,
                     ctx: EvalContext) -> Relation:
    """LATERAL FLATTEN: one output row per array element; non-array or NULL
    inputs contribute no rows (Snowflake's default OUTER => FALSE)."""
    output = Relation(plan.schema)
    values = compile_expression_columnar(plan.input_expr, ctx)(
        child.columns, len(child))
    for row_id, row, value in zip(child.row_ids, child.rows, values):
        if not isinstance(value, list):
            continue
        for index, element in enumerate(value):
            output.append(rowid.flatten_id(row_id, index),
                          row + (element, index))
    return output
