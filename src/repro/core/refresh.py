"""The refresh engine: executing one refresh of one dynamic table.

Section 5.4 of the paper describes the pipeline this module reproduces:
the scheduler issues an internal command naming a DT and a refresh
timestamp; the compiler expands the defining query, checks **query
evolution**, chooses the **refresh action**, rewrites the plan, and hands
it to execution under the transaction manager, which "locks the DT, stages
changes to its contents, commits or rolls back those changes, creates a
new table version indexed by the data timestamp, and unlocks the table."

Action selection (sections 3.3.2 and 5.4):

* ``NO_DATA`` — no source version moved since the frontier: "we merely
  commit a transaction marking the progress of the DT to the next data
  timestamp. This uses negligible resources."
* ``FULL`` — sources changed, refresh mode FULL: INSERT OVERWRITE of the
  defining query at the new data timestamp.
* ``INCREMENTAL`` — differentiate the defining query over the frontier →
  new-versions interval and merge the changes.
* ``REINITIALIZE`` — query evolution detected an upstream replacement:
  recompute from scratch (keeping deterministic row ids so incremental
  refreshes can resume afterwards).
* ``INITIAL`` — the first refresh (initialization, section 3.1).

Source version resolution (section 5.3): regular tables resolve "the table
version with the largest commit timestamp less than or equal to t"; an
upstream DT resolves by **exact** refresh-timestamp lookup, and a missing
entry fails the refresh — the paper's first production validation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.dynamic_table import (DynamicTable, RefreshAction,
                                      RefreshRecord)
from repro.core.evolution import (EvolutionOutcome, check_evolution,
                                  record_dependencies)
from repro.core.frontier import Frontier, SourceCursor
from repro.engine.executor import evaluate
from repro.engine.expressions import DEFAULT_REGISTRY, EvalContext, FunctionRegistry
from repro.errors import (ChangeIntegrityError, DurabilityError,
                          NotInitializedError, TransactionError,
                          TransientError, UserError, is_transient)
from repro.faults import inject
from repro.ivm.changes import Action, ChangeSet
from repro.ivm.differentiator import (OUTER_JOIN_DIRECT, differentiate)
from repro.plan import logical as lp
from repro.plan.builder import build_plan
from repro.plan.cache import PlanCache
from repro.plan.rewrite import optimize
from repro.storage.catalog import Catalog
from repro.storage.table import TableVersion
from repro.streams.changes import changes_between
from repro.txn.manager import TransactionManager, VersionReader
from repro.util.parallel import WorkerPool, partition_parallelism
from repro.util.timeutil import Timestamp


#: Compiled-plan cache size that triggers a stale-entry purge.
_PLAN_CACHE_LIMIT = 128

#: Exception classes a refresh *captures into its record* (and counts
#: toward auto-suspension) instead of raising: user errors (section
#: 3.3.3), transactional and environmental failures, and injected
#: faults. Anything else — a KeyError from a bug, say — still
#: propagates, after the attempt aborts its transaction and aggregate
#: state cleanly.
_RECORDED_ERRORS = (UserError, TransactionError, ChangeIntegrityError,
                    NotInitializedError, DurabilityError, TransientError)


class _FrontierDeltaSource:
    """DeltaSource for one refresh interval: frontier versions → resolved
    new versions, each endpoint a :class:`VersionReader` pinned to its
    versions, with per-table change streams from the storage layer.

    Change streams are memoized: differentiation consults them once per
    Scan rule and once more for the insert-only consolidation-skip check,
    and the partition diff should only be paid once per refresh."""

    def __init__(self, catalog: Catalog,
                 old_versions: dict[str, TableVersion],
                 new_versions: dict[str, TableVersion]):
        self._catalog = catalog
        self._old = old_versions
        self._new = new_versions
        self.old = VersionReader.pinned(catalog, old_versions)
        self.new = VersionReader.pinned(catalog, new_versions)
        self._delta_cache: dict[str, ChangeSet] = {}

    def scan_delta(self, table: str) -> ChangeSet:
        cached = self._delta_cache.get(table)
        if cached is None:
            versioned = self._catalog.versioned_table(table)
            cached = changes_between(versioned, self._old[table],
                                     self._new[table])
            self._delta_cache[table] = cached
        return cached


class RefreshEngine:
    """Executes refreshes against a catalog + transaction manager."""

    def __init__(self, catalog: Catalog, txn_manager: TransactionManager,
                 registry: FunctionRegistry = DEFAULT_REGISTRY,
                 outer_join_strategy: str = OUTER_JOIN_DIRECT):
        self.catalog = catalog
        self.txn_manager = txn_manager
        self.registry = registry
        self.outer_join_strategy = outer_join_strategy
        #: Optimized defining plans keyed by (DT name, catalog epoch,
        #: registry version, query text). Any DDL bumps the epoch, a UDF
        #: (re-)registration bumps the registry version, and an ALTER of
        #: the DT's own query changes the query text — each changes the
        #: key, so stale plans are never served and age out of the LRU.
        self._plan_cache = PlanCache(limit=_PLAN_CACHE_LIMIT)
        #: Intra-refresh partition pool (None = fully serial refreshes).
        #: Installed thread-locally around each refresh, so aggregate-state
        #: scans and folds fan out; distinct from any
        #: DAG-level coordinator pool, so a refresh running on a DAG
        #: worker never waits on the pool it occupies.
        self.partition_pool: Optional[WorkerPool] = None

    # -- public API ----------------------------------------------------------------

    def refresh(self, dt: DynamicTable,
                refresh_ts: Timestamp) -> RefreshRecord:
        """Run one refresh of ``dt`` at data timestamp ``refresh_ts``.

        Returns a :class:`RefreshRecord`; user errors are captured in the
        record (and counted toward auto-suspension) rather than raised —
        section 3.3.3: "If a refresh encounters a user error ... it fails
        and is not retried." *Transient* failures (lock conflicts,
        injected environmental faults) are retried under the DT's
        :class:`~repro.core.dynamic_table.RetryPolicy`, with exponential
        backoff modeled on the simulated clock.
        """
        record = RefreshRecord(data_timestamp=refresh_ts)
        dt.ensure_refreshable()
        policy = dt.retry_policy
        attempt = 0
        while True:
            try:
                self._attempt(dt, refresh_ts, record)
            except _RECORDED_ERRORS as exc:
                if is_transient(exc) and attempt < policy.max_retries:
                    # Transient failure with retry budget left: model the
                    # exponential backoff on the simulated clock (the
                    # scheduler folds backoff_total into the refresh's
                    # duration) and run a fresh attempt.
                    attempt += 1
                    record.retries = attempt
                    record.backoff_total += policy.delay(attempt)
                    record.reset_outcome()
                    continue
                record.error = f"{type(exc).__name__}: {exc}"
            break
        dt.record_refresh(record)
        return record

    def _attempt(self, dt: DynamicTable, refresh_ts: Timestamp,
                 record: RefreshRecord) -> None:
        """One refresh attempt in its own transaction. On *any* failure
        the transaction and the DT's aggregate state abort cleanly
        before the exception propagates — an internal error must never
        strand a begun agg-state refresh or a held table lock."""
        inject("refresh.execute", dt=dt.name, refresh_ts=refresh_ts)
        txn = self.txn_manager.begin(snapshot_wall=refresh_ts)
        try:
            txn.lock(dt.name)
            with partition_parallelism(self.partition_pool) as fanout:
                self._execute(dt, refresh_ts, record, txn)
            if fanout.tasks:
                record.parallel = {"partition_workers": fanout.workers,
                                   "partition_tasks": fanout.tasks}
        except BaseException:
            if txn.committed is None and not txn.aborted:
                txn.abort()
            if dt.agg_state is not None:
                # Accumulators may hold a partial fold of an interval that
                # never committed; drop them (also covered by the dirty
                # flag for exceptions that bypass this handler).
                dt.agg_state.abort_refresh()
            raise

    def build_plan(self, dt: DynamicTable) -> lp.PlanNode:
        """The DT's optimized defining plan against the current catalog.

        Cached per DT and keyed by (query text, catalog epoch, function
        registry version): section 5.4's rewrite pipeline only needs to
        re-run when the catalog or the UDF registry — and hence
        potentially name resolution, schemas, view expansions, or bound
        function implementations — has changed since the last refresh.
        Plans are immutable, so reuse across refreshes is safe."""
        key = (dt.name, self.catalog.epoch, self.registry.version,
               dt.query_text)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = optimize(build_plan(dt.query, self.catalog, self.registry))
            self._plan_cache.put(key, plan)
        return plan

    # -- internals --------------------------------------------------------------------

    def _execute(self, dt: DynamicTable, refresh_ts: Timestamp,
                 record: RefreshRecord, txn) -> None:
        decision = check_evolution(dt.dependencies, self.catalog)
        if decision.outcome == EvolutionOutcome.FAIL:
            raise UserError("; ".join(decision.reasons))

        plan = self.build_plan(dt)
        new_versions = self._resolve_sources(plan, refresh_ts)

        force_reinitialize = (
            decision.outcome == EvolutionOutcome.REINITIALIZE)

        if dt.frontier is None:
            action = RefreshAction.INITIAL
        elif force_reinitialize:
            action = RefreshAction.REINITIALIZE
        elif self._no_source_changed(dt, new_versions):
            action = RefreshAction.NO_DATA
        elif dt.effective_refresh_mode.value == "full":
            action = RefreshAction.FULL
        else:
            action = RefreshAction.INCREMENTAL
        record.action = action

        if action == RefreshAction.NO_DATA:
            # Mark progress only: commit an empty transaction and index the
            # current table version under the new data timestamp.
            frontier = self._frontier_for(refresh_ts, new_versions)
            if self.txn_manager.durability is not None:
                # The empty commit is still a durable event: recovery must
                # re-advance the frontier it installed.
                txn.wal_meta = {"dt": dt.name, "refresh_ts": refresh_ts,
                                "action": action, "frontier": frontier,
                                "record_deps": False}
            txn.commit()
            dt.table.register_refresh(refresh_ts, dt.table.current_version)
            dt.advance_frontier(frontier)
            record.frontier = frontier
            record.table_rows_after = dt.table.row_count()
            if dt.agg_state is not None:
                # No source moved, so the accumulators still describe the
                # (unchanged) child; only the interval token advances.
                dt.agg_state.note_no_data(refresh_ts)
            return

        ctx = EvalContext(timestamp=refresh_ts)
        agg_store = None
        if action == RefreshAction.INCREMENTAL:
            agg_store = self._agg_store_for(dt, plan)
            if agg_store is not None:
                agg_store.begin_refresh(self._state_fingerprint(dt),
                                        dt.frontier.data_timestamp)
            old_versions = self._frontier_versions(dt, new_versions)
            source = _FrontierDeltaSource(self.catalog, old_versions,
                                          new_versions)
            changes, stats = differentiate(
                plan, source, ctx,
                outer_join_strategy=self.outer_join_strategy,
                agg_state=agg_store)
            record.ivm_stats = stats
            record.source_rows_scanned = (stats.delta_rows_in
                                          + stats.endpoint_rows)
            txn.stage_changeset(dt.name, changes, overwrite=False)
            record.rows_inserted = changes.actions.count(Action.INSERT)
            record.rows_deleted = len(changes) - record.rows_inserted
        else:
            # INITIAL / REINITIALIZE / FULL: INSERT OVERWRITE from scratch.
            result = evaluate(
                plan, VersionReader.pinned(self.catalog, new_versions), ctx)
            record.source_rows_scanned = self._source_row_count(new_versions)
            changes = ChangeSet.signed(Action.INSERT, result.row_ids,
                                       result.columns)
            txn.stage_changeset(dt.name, changes, overwrite=True)
            record.rows_inserted = len(changes)
            record.rows_deleted = dt.table.row_count()

        frontier = self._frontier_for(refresh_ts, new_versions)
        if self.txn_manager.durability is not None:
            txn.wal_meta = {
                "dt": dt.name, "refresh_ts": refresh_ts, "action": action,
                "frontier": frontier,
                "record_deps": action in (RefreshAction.INITIAL,
                                          RefreshAction.REINITIALIZE)}
        txn.commit()
        if agg_store is not None:
            # The merge committed: the accumulators now describe the
            # interval end. (On abort this is never reached, and the
            # store's dirty flag forces reinitialization instead.)
            agg_store.commit_refresh(refresh_ts)
        elif dt.agg_state is not None:
            # FULL / INITIAL / REINITIALIZE rebuilt the table from
            # scratch (or the stateless ablation is pinned): any carried
            # accumulators are stale.
            dt.agg_state.invalidate(f"{action.value} refresh")
        dt.table.register_refresh(refresh_ts, dt.table.current_version)
        dt.advance_frontier(frontier)
        record.frontier = frontier
        record.table_rows_after = dt.table.row_count()
        if action in (RefreshAction.INITIAL, RefreshAction.REINITIALIZE):
            # Re-record dependency metadata so evolution stops firing.
            dt.dependencies = record_dependencies(dt.query, self.catalog)

    def _agg_store_for(self, dt: DynamicTable,
                       plan: lp.PlanNode):
        """The DT's aggregate state store for this refresh, or None when
        the refresh must run stateless: no aggregate-class nodes in the
        plan, or the :func:`~repro.ivm.aggstate.force_stateless` ablation
        is pinned (a stateless refresh moves the frontier without folding,
        so the commit path invalidates any carried store rather than let
        it describe a stale interval)."""
        from repro.ivm.aggstate import stateless_forced

        if stateless_forced():
            return None
        if not any(isinstance(node, (lp.Aggregate, lp.Distinct))
                   for node in plan.walk()):
            return None
        return dt.agg_state_store()

    def _state_fingerprint(self, dt: DynamicTable) -> tuple:
        """What the aggregate state's validity is pinned to: any DDL
        (catalog epoch), any UDF (re-)registration, or an ALTER of the
        DT's own query invalidates carried accumulators."""
        return (self.catalog.epoch, self.registry.version, dt.query_text)

    def _resolve_sources(self, plan: lp.PlanNode,
                         refresh_ts: Timestamp) -> dict[str, TableVersion]:
        versions: dict[str, TableVersion] = {}
        for table_name in set(lp.scans_of(plan)):
            entry = self.catalog.get(table_name)
            versioned = self.catalog.versioned_table(table_name)
            if entry.kind == "dynamic table":
                upstream = entry.payload
                assert isinstance(upstream, DynamicTable)
                upstream.ensure_readable()
                # Exact-match resolution (section 6.1, validation 1).
                versions[table_name] = versioned.version_for_refresh(refresh_ts)
            else:
                versions[table_name] = versioned.version_at(refresh_ts)
        return versions

    def _frontier_versions(self, dt: DynamicTable,
                           new_versions: dict[str, TableVersion],
                           ) -> dict[str, TableVersion]:
        assert dt.frontier is not None
        old_versions: dict[str, TableVersion] = {}
        for table_name in new_versions:
            cursor = dt.frontier.cursor(table_name)
            versioned = self.catalog.versioned_table(table_name)
            if cursor is None:
                # A new source appeared without evolution noticing; treat
                # the empty version 0 as the starting point.
                old_versions[table_name] = versioned.version(0)
            else:
                old_versions[table_name] = versioned.version(cursor.version_index)
        return old_versions

    def _no_source_changed(self, dt: DynamicTable,
                           new_versions: dict[str, TableVersion]) -> bool:
        """The NO_DATA test: every source's resolved version equals the
        frontier cursor (section 5.4: "we determine this by looking at the
        metadata and version history of the underlying tables")."""
        assert dt.frontier is not None
        for table_name, version in new_versions.items():
            cursor = dt.frontier.cursor(table_name)
            if cursor is None or cursor.version_index != version.index:
                return False
        return True

    def _frontier_for(self, refresh_ts: Timestamp,
                      versions: dict[str, TableVersion]) -> Frontier:
        cursors = {
            name: SourceCursor(name, version.index, version.commit_ts)
            for name, version in versions.items()}
        return Frontier(refresh_ts, cursors)

    def _source_row_count(self, versions: dict[str, TableVersion]) -> int:
        total = 0
        for name, version in versions.items():
            total += self.catalog.versioned_table(name).row_count(version)
        return total
