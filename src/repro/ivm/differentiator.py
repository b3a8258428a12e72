"""The query differentiation framework.

Section 5.5 of the paper: "To perform an incremental refresh, Snowflake
differentiates the DT's defining query Q to produce a query Δ_I Q that
outputs the changes in that query over a data timestamp interval I. ...
The framework is implemented in terms of syntactic rewrite rules, which
match the derivative operator and the plan beneath it, and produce an
equivalent expression in terms of derivatives of its internal terms."

Our :class:`Differentiator` is that framework: ``delta(plan)`` dispatches
on the operator at the root of ``plan`` to a rule registered in
:data:`RULES` and returns the plan's change set over the interval. Rules
can also evaluate any sub-plan at either endpoint of the interval
(``old(plan)`` / ``new(plan)``) — matching the paper's design point that
"none of our derivatives so far reuse the state from preceding data
timestamps already stored in the DT. They all work by computing changes
purely in terms of the sources" (section 5.5.3). Endpoint evaluations are
memoized per differentiation so a term referenced by several rules is
computed once (the term-reuse concern of section 5.5.1).

The inner-join and window rules use only the endpoint rows that share a
key with the delta (``Q|_I ⋉_k ΔQ``). :meth:`Differentiator.probe`
reads only those when the endpoint is a table scan keyed on plain
columns, the source can read partitions and the delta is smaller than
the table: it probes the partitions' key indexes, so a three-row
dimension update costs three keys' worth of fact rows rather than the
fact table. That is an *access path* over the sources, not DT state: the
indexes belong to the sources' immutable micro-partitions (section 5.4),
so nothing has to abort with a refresh or be checkpointed, and the rules
produce the same rows, ids and order as from the whole endpoint, which
every other case still reads.

Every node's delta — the root's included — is consolidated once, by
:meth:`Differentiator.delta`, unless it is insert-only: the insert-only
specialization of section 5.5.2 ("In many cases, the structure of a query
guarantees that redundant actions will not be introduced by
differentiation, which permits us to skip the final change-consolidation
step"). The top-level entry :func:`differentiate` records when a
structurally append-only plan over insert-only source deltas guaranteed
that skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Optional, Protocol, Sequence

from repro.engine.executor import _compress, evaluate
from repro.engine.expressions import (DEFAULT_CONTEXT, ColumnRef, EvalContext,
                                      Expression)
from repro.engine.relation import DictResolver, Relation, SnapshotResolver
from repro.errors import NotIncrementalizableError, RowIdIntegrityError
from repro.ivm.changes import Action, ChangeSet, consolidate
from repro.plan import logical as lp


def _guard_row_ids(row_ids, origin: str) -> None:
    """Reject positional-fallback row ids at the differentiator boundary.

    ``Relation.__init__`` assigns ``pos:<index>`` ids when a relation is
    built without explicit ids — and assigns them to *every* row at once,
    so checking the first id suffices. Such ids are only unique within one
    relation; across the relations a differentiation touches they collide,
    which would corrupt the ``($ROW_ID, $ACTION)`` uniqueness invariant
    downstream. Storage always provides real ids; hitting this means a
    caller handed the differentiator a hand-built relation or delta.
    """
    if row_ids and row_ids[0].startswith("pos:"):
        raise RowIdIntegrityError(
            f"positional fallback row ids (pos:<n>) in {origin} cannot "
            f"participate in incremental maintenance; supply stable row ids")


class DeltaSource(Protocol):
    """What differentiation needs from the storage layer: the two endpoint
    snapshots of the refresh interval and the per-table change streams.

    ``old`` and ``new`` are snapshot resolvers (``scan(table)`` at the
    interval start and end). A storage-backed source gives each endpoint
    a :class:`~repro.txn.manager.VersionReader`, whose ``scan_pruned`` the
    executor uses for pushed-down filters and whose ``scan_matching``
    :meth:`Differentiator.probe` uses to read only the rows keyed by a
    delta; a dict-backed endpoint has neither and is read whole.
    """

    old: SnapshotResolver
    new: SnapshotResolver

    def scan_delta(self, table: str) -> ChangeSet:
        """Consolidated changes of ``table`` over the interval."""
        ...


class _GuardedEndpoint(DictResolver):
    """One endpoint of a :class:`DictDeltaSource`: a dict of relations
    whose scans reject positional-fallback row ids."""

    def __init__(self, relations: dict[str, Relation], which: str):
        super().__init__(relations)
        self._which = which

    def scan(self, table: str) -> Relation:
        relation = super().scan(table)
        _guard_row_ids(relation.row_ids,
                       f"the {self._which} endpoint of table {table!r}")
        return relation


class DictDeltaSource:
    """A DeltaSource over plain dicts (for tests and benchmarks)."""

    def __init__(self, old: dict[str, Relation], new: dict[str, Relation],
                 deltas: dict[str, ChangeSet]):
        self.old = _GuardedEndpoint(old, "old")
        self.new = _GuardedEndpoint(new, "new")
        self._deltas = deltas

    def scan_delta(self, table: str) -> ChangeSet:
        return self._deltas.get(table, ChangeSet())


@dataclass
class DifferentiationStats:
    """Work counters, used by the cost model and the benchmarks."""

    delta_rows_in: int = 0       # source delta rows consumed
    delta_rows_out: int = 0      # delta rows produced (pre-consolidation)
    endpoint_evals: int = 0      # memoized endpoint evaluations performed
    endpoint_rows: int = 0       # rows materialized by endpoint evaluations
    join_input_rows: int = 0     # rows fed into join kernels by join rules
    agg_stateful_folds: int = 0  # aggregate nodes refreshed by state fold
    agg_recomputes: int = 0      # aggregate nodes refreshed by endpoint recompute
    consolidation_skipped: bool = False


#: Rule registry: operator class name -> rule(differ, plan) -> ChangeSet.
RULES: dict[str, Callable[["Differentiator", lp.PlanNode], ChangeSet]] = {}


def rule(operator: str):
    """Decorator registering a derivative rule for an operator."""

    def register(function):
        RULES[operator] = function
        return function

    return register


#: Outer-join derivative strategies (section 5.5.1 discusses both; the
#: rewrite-based one duplicates terms, the direct one factors them out).
OUTER_JOIN_DIRECT = "direct"
OUTER_JOIN_REWRITE = "rewrite"


class Differentiator:
    """One differentiation pass over an interval ``I``.

    Parameters
    ----------
    source:
        The interval's endpoints and change streams.
    ctx:
        Evaluation context pinned to the refresh's data timestamp, so
        context functions are stable (section 3.4).
    outer_join_strategy:
        ``"direct"`` (default, the production choice of section 5.5.1) or
        ``"rewrite"`` (the original inner+anti decomposition, kept for the
        ablation benchmark).
    agg_state:
        Optional :class:`repro.ivm.aggstate.AggStateStore` carrying the
        DT's per-group accumulators across refreshes. When present (and
        :func:`~repro.ivm.aggstate.force_stateless` is not active), the
        aggregate rules fold deltas into it instead of recomputing
        affected groups at the interval endpoints.
    """

    def __init__(self, source: DeltaSource,
                 ctx: EvalContext = DEFAULT_CONTEXT,
                 outer_join_strategy: str = OUTER_JOIN_DIRECT,
                 agg_state=None):
        self.source = source
        self.ctx = ctx
        self.outer_join_strategy = outer_join_strategy
        self.agg_state = agg_state
        self._agg_handle_counts: dict[str, int] = {}
        self.stats = DifferentiationStats()
        self._old_cache: dict[int, Relation] = {}
        self._new_cache: dict[int, Relation] = {}
        self._delta_cache: dict[int, ChangeSet] = {}
        #: table -> whether its source delta was insert-only, recorded when
        #: the Scan rule's result passes through :meth:`delta` so the
        #: consolidation-skip analysis need not rescan the delta.
        self.source_insert_only: dict[str, bool] = {}

    # -- endpoint evaluation (memoized term reuse) ------------------------------

    def old(self, plan: lp.PlanNode) -> Relation:
        """Evaluate ``plan`` at the interval start (memoized)."""
        key = id(plan)
        if key not in self._old_cache:
            relation = evaluate(plan, self.source.old, self.ctx)
            self.stats.endpoint_evals += 1
            self.stats.endpoint_rows += len(relation)
            self._old_cache[key] = relation
        return self._old_cache[key]

    def new(self, plan: lp.PlanNode) -> Relation:
        """Evaluate ``plan`` at the interval end (memoized)."""
        key = id(plan)
        if key not in self._new_cache:
            relation = evaluate(plan, self.source.new, self.ctx)
            self.stats.endpoint_evals += 1
            self.stats.endpoint_rows += len(relation)
            self._new_cache[key] = relation
        return self._new_cache[key]

    def probe(self, which: str, plan: lp.PlanNode,
              key_exprs: Sequence[Expression], delta_rows: int,
              keys: Callable[[], Collection[tuple]]) -> Optional[Relation]:
        """The rows of ``plan`` at endpoint ``which`` (``"old"`` /
        ``"new"``) whose group key over ``key_exprs`` is in ``keys()``, in
        scan order — all that a rule joining or semi-joining the endpoint
        with a ``delta_rows``-row delta can use — read from partition key
        indexes. None, without calling ``keys``, when the endpoint must be
        read whole: ``plan`` is not a scan keyed on plain columns, the
        source has no partition access, or the delta is not smaller than
        the table."""
        if not key_exprs or not isinstance(plan, lp.Scan) or not all(
                isinstance(expr, ColumnRef) for expr in key_exprs):
            return None
        reader = self.source.old if which == "old" else self.source.new
        scan_matching = getattr(reader, "scan_matching", None)
        if scan_matching is None:
            return None
        probed = scan_matching(plan.table,
                               tuple(expr.index for expr in key_exprs), keys,
                               delta_rows)
        if probed is None:
            return None
        self.stats.endpoint_evals += 1
        self.stats.endpoint_rows += len(probed)
        return probed.with_schema(plan.schema)

    # -- the derivative ----------------------------------------------------------

    def delta(self, plan: lp.PlanNode) -> ChangeSet:
        """Δ_I of a sub-plan (memoized).

        The result is consolidated before caching unless it is
        insert-only: every derivative rule assumes its input delta has at
        most one insert and one delete per row id, with deletes first —
        an update crossing two stacked joins would otherwise reorder into
        duplicate ``($ROW_ID, INSERT)`` pairs.
        """
        key = id(plan)
        cached = self._delta_cache.get(key)
        if cached is not None:
            return cached
        rule_fn = RULES.get(type(plan).__name__)
        if rule_fn is None:
            raise NotIncrementalizableError(
                f"operator {type(plan).__name__} has no derivative rule")
        result = rule_fn(self, plan)
        self.stats.delta_rows_out += len(result)
        insert_only = result.insert_only
        if not insert_only:
            result = consolidate(result)
        if isinstance(plan, lp.Scan):
            # Scan rules return the source delta verbatim, so this is the
            # table's change-stream insert-only flag — and the boundary at
            # which a hand-built delta carrying positional fallback ids
            # must be rejected (storage change streams always carry real
            # ids).
            _guard_row_ids(result.row_ids,
                           f"the source delta of table {plan.table!r}")
            self.source_insert_only[plan.table] = insert_only
        self._delta_cache[key] = result
        return result

    # -- aggregate state ---------------------------------------------------------

    def agg_node_state(self, plan: lp.PlanNode):
        """The state handle for one Aggregate/Distinct node, or None when
        the node must take the endpoint-recompute path (no store attached,
        :func:`~repro.ivm.aggstate.force_stateless` active, or the node's
        shape has no exact retractable accumulators).

        Handles are keyed by (node kind, encounter order): each rule fires
        exactly once per node per differentiation (``delta`` memoizes), and
        dispatch order is a deterministic function of the plan, so the
        same node reclaims its state on every refresh. Plan *changes* are
        caught by the store's fingerprint check, not here.
        """
        from repro.ivm import aggstate

        if self.agg_state is None or aggstate.stateless_forced():
            return None
        if isinstance(plan, lp.Aggregate):
            supported, __ = aggstate.stateful_aggregate_supported(plan)
        else:
            supported, __ = aggstate.stateful_distinct_supported(plan)
        if not supported:
            return None
        kind = type(plan).__name__
        sequence = self._agg_handle_counts.get(kind, 0)
        self._agg_handle_counts[kind] = sequence + 1
        return self.agg_state.node_state(kind, sequence, plan)


def differentiate(plan: lp.PlanNode, source: DeltaSource,
                  ctx: EvalContext = DEFAULT_CONTEXT,
                  outer_join_strategy: str = OUTER_JOIN_DIRECT,
                  agg_state=None,
                  ) -> tuple[ChangeSet, DifferentiationStats]:
    """Compute the consolidated changes of ``plan`` over the interval.

    The root comes back as :meth:`Differentiator.delta` produced it:
    consolidated, unless it is insert-only — which it is by construction
    when the plan is structurally append-only and every source delta is
    insert-only (section 5.5.2), and which needs no consolidation either
    way.
    """
    # Import here: the rules modules register themselves into RULES and
    # plan.properties imports this module's names.
    from repro.ivm import rules_agg, rules_basic, rules_join, rules_window  # noqa: F401
    from repro.plan.properties import is_append_only_plan

    differ = Differentiator(source, ctx, outer_join_strategy,
                            agg_state=agg_state)
    changes = differ.delta(plan)

    if is_append_only_plan(plan):
        recorded = differ.source_insert_only
        differ.stats.consolidation_skipped = all(
            recorded[table] if table in recorded
            else source.scan_delta(table).insert_only
            for table in lp.scans_of(plan))
    if changes.insert_only:
        # ``delta`` consolidated anything else before caching it; an
        # insert-only result needs only the pair-uniqueness check.
        changes.validate()
    return changes, differ.stats


def restrict(relation: Relation, keep: Sequence[bool]) -> Relation:
    """The rows of ``relation`` whose ``keep`` entry is True, ids and
    order preserved — the executor's own compress kernel."""
    columns, row_ids = _compress(relation.columns, relation.row_ids, keep,
                                 strict=True)
    return Relation.from_columns(relation.schema, columns, row_ids)


def semi_join_keys(relation: Relation, key_fn, affected: set) -> Relation:
    """Rows of ``relation`` whose key is in ``affected`` — the
    ``Q ⋉_k ΔQ`` restriction shared by the affected-key rules (outer
    joins, aggregates, DISTINCT, windows).

    ``key_fn`` is a columnar key evaluator (``(columns, n) -> [key]``):
    keys are computed in one pass per column and the restriction gathers
    column slices, never row tuples.
    """
    keys = key_fn(relation.columns, len(relation))
    return restrict(relation, [key in affected for key in keys])


def diff_relations(old: Relation, new: Relation) -> ChangeSet:
    """π₋(old) + π₊(new): every ``old`` row as a deletion, then every
    ``new`` row as an insertion, columns adopted by reference — the raw
    output of the affected-key rules (outer joins, aggregates, distinct,
    windows). A row both sides hold unchanged under one id cancels when
    :meth:`Differentiator.delta` consolidates the rule's result; a changed
    one becomes a DELETE + INSERT under its id."""
    return ChangeSet.concat([
        ChangeSet.signed(Action.DELETE, old.row_ids, old.columns),
        ChangeSet.signed(Action.INSERT, new.row_ids, new.columns)])
