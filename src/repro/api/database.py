"""The :class:`Database` object: shared substrates + a default session.

One object wires together the substrates (catalog, versioned storage,
transaction manager, SQL frontend, executor) with the paper's systems
(dynamic tables, the refresh engine, the scheduler, virtual warehouses),
and owns the resources shared by every session: the plan cache, the
warehouse pool, and the simulated clock.

``Database.execute`` / ``query`` / ``execute_script`` remain the one-call
facade — they delegate to an implicit **default session** — while
``Database.session()`` opens additional sessions with independent state
(default warehouse, AS-OF time, role). See :mod:`repro.api` for the
layered surface.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.api.cursor import Cursor
from repro.api.prepared import PreparedStatement
from repro.api.results import QueryResult
from repro.api.session import Session
from repro.core.dynamic_table import (DynamicTable, RefreshMode,
                                      RefreshRecord)
from repro.core.evolution import record_dependencies
from repro.core.graph import DependencyGraph
from repro.core.initialization import choose_initialization_timestamp
from repro.core.lag import TargetLag
from repro.core.refresh import RefreshEngine
from repro.engine.expressions import EvalContext, FunctionRegistry
from repro.engine.executor import evaluate
from repro.engine.relation import Relation
from repro.errors import (CatalogError, NotIncrementalizableError, UserError)
from repro.ivm.differentiator import OUTER_JOIN_DIRECT
from repro.plan.builder import build_plan
from repro.plan.cache import PlanCache
from repro.plan.properties import incrementalizability
from repro.scheduler.clock import SimClock
from repro.scheduler.cost import CostModel
from repro.scheduler.scheduler import Scheduler, SchedulerReport
from repro.scheduler.warehouse import Warehouse, WarehousePool
from repro.sql import nodes as n
from repro.storage.catalog import Catalog
from repro.txn.manager import TransactionManager
from repro.util.timeutil import Duration, MINUTE, Timestamp


class Database:
    """An in-process analytical database with Dynamic Tables."""

    def __init__(self, clock: SimClock | None = None,
                 cost_model: CostModel | None = None,
                 outer_join_strategy: str = OUTER_JOIN_DIRECT,
                 path: str | None = None,
                 durability: str = "fsync",
                 checkpoint_every: Duration | None = None,
                 checkpoint_wal_bytes: int | None = None,
                 parallelism: int | None = None,
                 wal_failure_policy: str = "readonly"):
        """``path`` opts into durability: the directory holds the WAL and
        checkpoint files, existing state is recovered before the first
        statement runs, and every commit is logged. ``durability`` picks
        the WAL flush policy — ``"fsync"`` (one fsync per commit) or
        ``"async"`` (OS-buffered; a machine crash may lose the unsynced
        suffix). ``checkpoint_every`` (simulated time) schedules a
        background checkpointer; ``checkpoint_wal_bytes`` checkpoints
        whenever the WAL outgrows the threshold (checked by the server
        front end after each commit, or via :meth:`maybe_checkpoint`).

        ``parallelism`` turns on DAG-parallel scheduled refreshes with
        that many concurrent workers (None keeps the serial scheduler);
        it produces byte-identical table states to serial refresh; see
        :meth:`set_parallelism`.

        ``wal_failure_policy`` decides what a *failed WAL write* does:
        ``"readonly"`` (the default) fails the commit and flips the
        database into degraded read-only mode — reads keep serving the
        last consistent versions, writes are refused until
        ``durability.exit_degraded()`` — while ``"continue"`` counts the
        failure and carries on accepting (unlogged) writes."""
        self.clock = clock if clock is not None else SimClock()
        self.catalog = Catalog(self.clock.now)
        self.txns = TransactionManager(self.catalog, self.clock.now)
        self.registry = FunctionRegistry()
        self.warehouses = WarehousePool()
        self.engine = RefreshEngine(self.catalog, self.txns, self.registry,
                                    outer_join_strategy)
        self.scheduler = Scheduler(self.catalog, self.engine, self.warehouses,
                                   self.clock, cost_model)
        if parallelism is not None:
            self.set_parallelism(parallelism)
        #: Optimized-plan cache shared by every session's prepared
        #: statements (parameter-aware keys; see repro.plan.cache).
        self.plan_cache = PlanCache()
        # Session ids are allocated under a mutex: Server.connect calls
        # session() from concurrent pool threads, and an unguarded
        # counter can hand two sessions the same id.
        self._session_mutex = threading.Lock()
        self._session_count = 0
        self._default_session = Session(self, 0)
        #: The durability manager, or None for a purely in-memory
        #: database (the default).
        self.durability = None
        if path is not None:
            if durability not in ("fsync", "async"):
                raise UserError(
                    f"unknown durability mode: {durability!r} "
                    f"(expected 'fsync' or 'async')")
            from repro.durability.manager import DurabilityManager

            manager = DurabilityManager(
                self, path, fsync=(durability == "fsync"),
                checkpoint_every=checkpoint_every,
                checkpoint_wal_bytes=checkpoint_wal_bytes,
                wal_failure_policy=wal_failure_policy)
            manager.open()
            # Hooks attach only after recovery: replayed operations must
            # never be re-logged.
            self.durability = manager
            self.catalog.durability = manager
            self.txns.durability = manager
            if checkpoint_every is not None:
                self._schedule_checkpoint_tick(checkpoint_every)

    def _schedule_checkpoint_tick(self, interval: Duration) -> None:
        """Background checkpointer on the simulated clock: a
        self-rescheduling scheduler callback (no wall-clock thread)."""
        def tick() -> None:
            if self.durability is None or self.durability.closed:
                return
            self.durability.checkpoint()
            self.scheduler.at(self.clock.now() + interval, tick)

        self.scheduler.at(self.clock.now() + interval, tick)

    # -- parallel refresh ---------------------------------------------------------

    def set_parallelism(self, workers: int | None) -> None:
        """(Re)configure parallel refresh: scheduled refreshes of
        independent DTs run concurrently in dependency waves on
        ``workers`` threads, and the scheduler's modeled durations queue
        on as many dispatch slots. ``None`` restores the exact serial
        legacy scheduler."""
        self.scheduler.set_parallelism(workers)

    # -- sessions ----------------------------------------------------------------

    @property
    def default_session(self) -> Session:
        """The implicit session behind the ``execute``/``query`` facade."""
        return self._default_session

    def session(self) -> Session:
        """Open a new session with independent per-session state."""
        with self._session_mutex:
            self._session_count += 1
            session_id = self._session_count
        return Session(self, session_id)

    def cursor(self) -> Cursor:
        """A streaming cursor over the default session."""
        return self._default_session.cursor()

    def prepare(self, sql: str) -> PreparedStatement:
        """Prepare a statement on the default session."""
        return self._default_session.prepare(sql)

    def transaction(self):
        """Scoped transaction on the default session (BEGIN on entry,
        COMMIT on clean exit, ROLLBACK on error)."""
        return self._default_session.transaction()

    def serve(self, workers: int = 8):
        """A thread-pool :class:`~repro.server.Server` front end over this
        database — concurrent sessions, retried transactions."""
        from repro.server import Server

        return Server(self, workers=workers)

    # -- time --------------------------------------------------------------------

    @property
    def now(self) -> Timestamp:
        return self.clock.now()

    def run_for(self, duration: Duration) -> SchedulerReport:
        """Advance simulated time, letting the scheduler refresh DTs."""
        return self.scheduler.run_until(self.clock.now() + duration)

    def run_until(self, time: Timestamp) -> SchedulerReport:
        return self.scheduler.run_until(time)

    def at(self, time: Timestamp, callback: Callable[[], None]) -> None:
        """Schedule a workload callback at an absolute simulated time."""
        self.scheduler.at(time, callback)

    # -- warehouses ------------------------------------------------------------------

    def create_warehouse(self, name: str, size: int = 1,
                         auto_suspend: Optional[Duration] = MINUTE,
                         ) -> Warehouse:
        warehouse = self.warehouses.create(name, size, auto_suspend)
        if self.durability is not None:
            self.durability.log_ddl(
                "create_warehouse",
                {"name": name, "size": size, "auto_suspend": auto_suspend},
                self.catalog.epoch)
        return warehouse

    # -- SQL (facade over the default session) -----------------------------------

    def execute(self, sql: str, binds: object = None,
                ) -> Optional[QueryResult]:
        """Execute a single SQL statement; returns rows for SELECTs."""
        return self._default_session.execute(sql, binds)

    def execute_script(self, sql: str) -> list[Optional[QueryResult]]:
        """Execute a ``;``-separated script."""
        return self._default_session.execute_script(sql)

    def query(self, sql: str, binds: object = None) -> QueryResult:
        return self._default_session.query(sql, binds)

    def query_at(self, sql: str, wall: Timestamp) -> QueryResult:
        """Time travel: evaluate a query against the snapshot at ``wall``."""
        return self._default_session.query_at(sql, wall)

    def explain(self, sql: str, optimized: bool = True) -> str:
        """The bound (and by default optimized) logical plan of a query,
        rendered as an indented tree."""
        return self._default_session.explain(sql, optimized)

    # -- storage maintenance ------------------------------------------------------

    def clone_table(self, source: str, name: str) -> None:
        """Zero-copy clone of a base table (section 3.4)."""
        from repro.core.cloning import clone_table

        # Under the commit mutex: reading the source's current version
        # and stamping the clone must not interleave with an in-flight
        # commit's installation.
        with self.txns.commit_mutex:
            ts = self.txns.hlc.now()
            clone_table(self.catalog, source, name, ts)
            if self.durability is not None:
                self.durability.log_ddl(
                    "clone_table", {"source": source, "name": name,
                                    "ts": ts},
                    self.catalog.epoch)

    def clone_dynamic_table(self, source: str, name: str) -> DynamicTable:
        """Zero-copy clone of a dynamic table, preserving its frontier so
        the clone avoids reinitialization (section 3.4)."""
        from repro.core.cloning import clone_dynamic_table

        with self.txns.commit_mutex:
            ts = self.txns.hlc.now()
            clone = clone_dynamic_table(self.catalog, source, name, ts)
            if self.durability is not None:
                self.durability.log_ddl(
                    "clone_dt", {"source": source, "name": name, "ts": ts},
                    self.catalog.epoch)
            return clone

    def recluster(self, table_name: str) -> None:
        """Background maintenance: rewrite partitions without logical
        change (section 5.5.2's data-equivalent operations)."""
        table = self.catalog.versioned_table(table_name)
        # The read-rebuild-install cycle is a commit critical section:
        # without the mutex, a concurrent DML commit between the read of
        # the current version and the install would be silently undone.
        with self.txns.commit_mutex:
            ts = self.txns.hlc.now()
            table.recluster(ts)
            if self.durability is not None:
                self.durability.log_ddl(
                    "recluster", {"name": table_name, "ts": ts},
                    self.catalog.epoch)

    # -- durability ---------------------------------------------------------------------

    def checkpoint(self) -> str:
        """Snapshot the database and truncate the WAL behind it; returns
        the checkpoint file's path. Requires ``path=`` at construction."""
        if self.durability is None:
            raise UserError("checkpoint() requires a durable database "
                            "(open with Database(path=...))")
        return self.durability.checkpoint()

    def maybe_checkpoint(self) -> bool:
        """Checkpoint iff the WAL outgrew ``checkpoint_wal_bytes``. A
        no-op (False) for in-memory databases or below the threshold."""
        if self.durability is None:
            return False
        return self.durability.maybe_checkpoint()

    def durability_status(self) -> Optional[dict]:
        """WAL/checkpoint/recovery state, or None when in-memory."""
        if self.durability is None:
            return None
        return self.durability.status()

    def close(self) -> None:
        """Flush and close the WAL. The object stays usable for reads;
        in-memory databases treat this as a no-op."""
        if self.durability is not None:
            self.durability.close()

    # -- dynamic tables -----------------------------------------------------------------

    def dynamic_table(self, name: str) -> DynamicTable:
        entry = self.catalog.get(name)
        if entry.kind != "dynamic table":
            raise CatalogError(f"{name!r} is not a dynamic table")
        payload = entry.payload
        assert isinstance(payload, DynamicTable)
        return payload

    def dynamic_tables(self, include_hidden: bool = False,
                       ) -> list[DynamicTable]:
        """All dynamic tables; hidden fragment DTs (section 5.5.3's
        "hidden, internal DTs") are filtered unless requested."""
        tables = [entry.payload  # type: ignore[misc]
                  for entry in self.catalog.entries(kind="dynamic table")]
        if include_hidden:
            return tables
        return [dt for dt in tables if not getattr(dt, "hidden", False)]

    def create_dynamic_table(self, name: str, query: n.Select | str,
                             target_lag: str | TargetLag,
                             warehouse: str,
                             refresh_mode: str = "auto",
                             initialize: str = "on_create",
                             or_replace: bool = False,
                             auto_fragment: bool = False,
                             options: dict | None = None) -> DynamicTable:
        """Create (and by default synchronously initialize) a DT.

        ``auto_fragment=True`` enables the section 5.5.3 extension:
        top-level UNION ALL queries split into hidden per-branch DTs
        (intermediate state), letting each branch pick its own refresh
        mode; the visible DT becomes a cheap union over the fragments.

        ``options`` sets the failure policy at creation — the same keys
        ``ALTER DYNAMIC TABLE ... SET`` accepts: ``retries`` (transient
        failures retried with exponential backoff), ``backoff`` (base
        delay, duration string or nanoseconds), ``backoff_factor``, and
        ``error_threshold`` (consecutive failures before auto-suspend,
        section 3.3.3).
        """
        if isinstance(query, str):
            from repro.sql.parser import parse_query

            query_text = query
            query = parse_query(query)
        else:
            query_text = ""

        if auto_fragment:
            fragmented = self._maybe_fragment(
                name, query, target_lag, warehouse, initialize)
            if fragmented is not None:
                query = fragmented
        lag = (TargetLag.parse(target_lag)
               if isinstance(target_lag, str) else target_lag)
        if not self.warehouses.exists(warehouse):
            raise CatalogError(f"unknown warehouse: {warehouse}")
        try:
            mode = RefreshMode(refresh_mode.lower())
        except ValueError:
            raise UserError(f"unknown refresh mode: {refresh_mode}") from None
        if initialize not in ("on_create", "on_schedule"):
            raise UserError(f"unknown initialize option: {initialize}")

        plan = build_plan(query, self.catalog, self.registry)
        check = incrementalizability(plan)
        if mode == RefreshMode.INCREMENTAL and not check.supported:
            raise NotIncrementalizableError("; ".join(check.reasons))

        from repro.storage.table import VersionedTable

        schema = plan.schema.requalified(None)
        table = VersionedTable(name, schema, self.catalog.allocate_table_seq())
        dependencies = record_dependencies(query, self.catalog)
        dt = DynamicTable(name, query_text, query, lag, warehouse, mode,
                          table, dependencies, check.supported, check.reasons)
        from repro.analysis.analyzer import analyze_bound_query

        # The plan is already bound: the analyzer reuses it, so the
        # attached report costs no second bind.
        dt.analysis = analyze_bound_query(query, plan,
                                          refresh_mode=mode.value,
                                          sql=query_text)
        if options:
            from repro.core.dynamic_table import apply_policy_options

            apply_policy_options(dt, options)
        self.catalog.create_dynamic_entry(name, dt, or_replace=or_replace)
        if self.durability is not None:
            # Logged before initialization: the initializing refresh is a
            # normal transaction and replays from its own commit records.
            data = {"name": name, "query_text": query_text, "query": query,
                    "target_lag": lag, "warehouse": warehouse,
                    "refresh_mode": mode.value, "or_replace": or_replace}
            if options:
                data["options"] = dict(options)
            self.durability.log_ddl("create_dynamic_table", data,
                                    self.catalog.epoch)

        if initialize == "on_create":
            self._initialize(dt)
        return dt

    def _maybe_fragment(self, name: str, query: n.Select,
                        target_lag: str | TargetLag, warehouse: str,
                        initialize: str) -> Optional[n.Select]:
        """Split a UNION ALL defining query into hidden fragment DTs;
        returns the rewritten main query, or None when not fragmentable."""
        from repro.core.fragments import (fragment_name, split_union,
                                          union_of_fragments)

        branches = split_union(query)
        if branches is None:
            return None
        branch_schemas: list[list[str]] = []
        for index, branch in enumerate(branches):
            fragment = self.create_dynamic_table(
                fragment_name(name, index), branch,
                target_lag="downstream", warehouse=warehouse,
                refresh_mode="auto", initialize=initialize)
            fragment.hidden = True
            if self.durability is not None:
                self.durability.log_ddl("dt_hidden",
                                        {"name": fragment.name},
                                        self.catalog.epoch)
            branch_schemas.append(fragment.schema.names)
        return union_of_fragments(name, branch_schemas)

    def _initialize(self, dt: DynamicTable) -> None:
        """Synchronous initialization with the timestamp selection of
        section 3.1.2."""
        graph = DependencyGraph(self.catalog)
        upstream = graph.upstream_dts(dt.name)
        lag = (dt.target_lag.duration if not dt.target_lag.is_downstream
               else graph.effective_lag(dt.name))
        choice = choose_initialization_timestamp(upstream, self.clock.now(), lag)
        if choice.requires_upstream_refresh:
            for upstream_dt in graph.upstream_closure(dt.name):
                self._refresh_now(upstream_dt, choice.data_timestamp)
        record = self._refresh_now(dt, choice.data_timestamp)
        if record.error is not None:
            raise UserError(
                f"initialization of {dt.name!r} failed: {record.error}")

    def _refresh_now(self, dt: DynamicTable,
                     refresh_ts: Timestamp) -> RefreshRecord:
        """Run a refresh immediately (manual path: no warehouse queueing)."""
        if dt.frontier is not None and dt.frontier.data_timestamp == refresh_ts:
            # Already at this data timestamp: nothing to do.
            return dt.refresh_history[-1]
        record = self.engine.refresh(dt, refresh_ts)
        record.start_wall = record.end_wall = self.clock.now()
        return record

    def refresh_dynamic_table(self, name: str) -> RefreshRecord:
        """Manual refresh: "Manual refreshes choose a data timestamp that
        is after the refresh command was issued" (section 3.1.2) — the
        clock ticks forward one millisecond, and the whole upstream chain
        refreshes at the new timestamp first."""
        from repro.util.timeutil import MILLISECOND

        dt = self.dynamic_table(name)
        dt.ensure_refreshable()
        refresh_ts = self.clock.advance(MILLISECOND)
        graph = DependencyGraph(self.catalog)
        for upstream_dt in graph.upstream_closure(name):
            upstream_record = self._refresh_now(upstream_dt, refresh_ts)
            if upstream_record.error is not None:
                raise UserError(
                    f"upstream refresh of {upstream_dt.name!r} failed: "
                    f"{upstream_record.error}")
        record = self._refresh_now(dt, refresh_ts)
        if record.error is not None:
            raise UserError(f"refresh of {name!r} failed: {record.error}")
        return record

    # -- the DVS oracle ---------------------------------------------------------------

    def check_dvs(self, name: str) -> bool:
        """The paper's strongest assertion (section 6.1): "if you run the
        defining query as of the data timestamp, you should get the same
        result as in the DT." Returns True when it holds; raises
        AssertionError with a diff otherwise."""
        dt = self.dynamic_table(name)
        dt.ensure_readable()
        assert dt.frontier is not None
        data_ts = dt.frontier.data_timestamp

        plan = build_plan(dt.query, self.catalog, self.registry)
        resolver = _FrontierReader(self, dt)
        ctx = EvalContext(timestamp=data_ts)
        expected = evaluate(plan, resolver, ctx)
        actual = dt.table.relation()

        expected_rows = sorted(expected.rows, key=repr)
        actual_rows = sorted(actual.rows, key=repr)
        if expected_rows != actual_rows:
            raise AssertionError(
                f"DVS violation on {name!r} at data_ts={data_ts}:\n"
                f"  expected {expected_rows!r}\n"
                f"  actual   {actual_rows!r}")
        return True


class _FrontierReader:
    """Resolver reading each source exactly at the DT's frontier cursor —
    the snapshot the last refresh was (or should have been) computed on.

    The DVS oracle's reader, deliberately not a
    :class:`~repro.txn.manager.VersionReader`: it offers only ``scan``, so
    the oracle reads whole versions and a zone-map or key-index bug
    cannot hide on both sides of :meth:`Database.check_dvs`."""

    def __init__(self, db: Database, dt: DynamicTable):
        self._db = db
        self._dt = dt

    def scan(self, table: str) -> Relation:
        versioned = self._db.catalog.versioned_table(table)
        cursor = self._dt.frontier.cursor(table) if self._dt.frontier else None
        if cursor is not None:
            version = versioned.version(cursor.version_index)
        else:
            version = versioned.version_at(self._dt.frontier.data_timestamp)
        return versioned.relation(version)
