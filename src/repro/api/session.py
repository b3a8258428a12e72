"""Sessions: the per-connection layer of the public API.

A :class:`Session` models one client connection to the database (the
multi-tenant frontend the paper's system places in front of the
refresh/IVM substrate). Each session carries its own state on top of the
shared :class:`~repro.txn.manager.TransactionManager`:

* a **default warehouse** — used by ``CREATE DYNAMIC TABLE`` statements
  that omit the WAREHOUSE clause;
* an **AS-OF time** — when set, every SELECT in the session reads the
  snapshot at that wall time (time travel as session state);
* a **role** — surfaced to queries through ``CURRENT_ROLE``;
* an optional **open transaction** — see below.

Statements enter through :meth:`execute` / :meth:`query` (one-shot),
:meth:`prepare` (repeated execution with binds, plan-cache backed), or
:meth:`cursor` (DB-API-flavored streaming reads). All three cross the same
**error boundary**: any error escaping the session carries the offending
SQL on its ``sql`` attribute, and internal Python exceptions (KeyError,
ValueError, ...) are wrapped as :class:`~repro.errors.StatementError` — a
``UserError`` subtype — instead of leaking raw.

Transactions
------------

By default every statement auto-commits, exactly as before. An explicit
transaction — opened with :meth:`begin`, the :meth:`transaction` context
manager, or the SQL statement ``BEGIN`` — holds one open
:class:`~repro.txn.manager.Transaction` across statements:

* reads see the snapshot taken at BEGIN **plus the transaction's own
  staged writes** (read-your-writes);
* writes stage into the transaction and become visible to other sessions
  only at COMMIT, all under one HLC commit timestamp;
* ``SAVEPOINT name`` / ``ROLLBACK TO name`` checkpoint and restore the
  staged-write state without closing the transaction;
* an execution error mid-transaction **poisons** it: every further
  statement fails until ``ROLLBACK`` (or ``ROLLBACK TO`` a savepoint,
  which un-poisons);
* COMMIT may raise :class:`~repro.errors.LockConflict` under snapshot
  isolation's first-committer-wins rule — the transaction is then rolled
  back automatically and the caller retries (the server front end in
  :mod:`repro.server` automates the retry loop);
* ``session.autocommit = False`` gives DB-API connection semantics: the
  first statement implicitly opens a transaction and ``commit()`` /
  ``rollback()`` close it.

AS-OF session state and :meth:`query_at` bypass the open transaction —
they are historical reads against the committed store. DDL is **not**
transactional: it applies to the catalog immediately even inside an open
transaction.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.analysis.analyzer import (analyze_bound_query,
                                     analyze_bound_write, analyze_statement,
                                     diagnostic_from_error)
from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.api.insert import cast_block, values_block
from repro.api.prepared import ParameterSpec, PreparedStatement, SlotTypes
from repro.api.results import QueryResult
from repro.engine import types as t
from repro.engine.executor import evaluate, stream_evaluate
from repro.engine.expressions import EvalContext
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import Value
from repro.core.dynamic_table import (DynamicTable, apply_policy_options,
                                      encode_option_detail)
from repro.errors import (AnalysisError, CatalogError, LockConflict,
                          ParseError, ReproError, StatementError,
                          TransactionError, UserError)
from repro.plan import logical as lp
from repro.plan.builder import build_plan
from repro.plan.rewrite import optimize
from repro.sql import nodes as n
from repro.sql.parser import parse_prepared, parse_statements
from repro.txn.manager import Transaction
from repro.util.timeutil import Timestamp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.cursor import Cursor
    from repro.api.database import Database

#: Session settings and their validators.
_SETTING_NAMES = ("warehouse", "as_of", "role", "analyze_level")

#: Internal exception types the boundary converts to StatementError;
#: anything else non-Repro (e.g. MemoryError) keeps propagating raw.
_INTERNAL_EXCEPTIONS = (KeyError, ValueError, TypeError, IndexError,
                        AttributeError, ZeroDivisionError)

#: Transaction-control statements: never trigger an implicit BEGIN and
#: (mostly) remain executable on a poisoned transaction.
_CONTROL_STATEMENTS = (n.BeginTransaction, n.CommitTransaction,
                       n.RollbackTransaction, n.Savepoint)


@contextmanager
def statement_boundary(sql: str):
    """The API error boundary: attach the offending SQL to every
    :class:`ReproError` passing through, and wrap raw internal exceptions
    as :class:`StatementError` so callers never see a bare KeyError."""
    try:
        yield
    except ReproError as exc:
        if getattr(exc, "sql", None) is None:
            exc.sql = sql
        raise
    except _INTERNAL_EXCEPTIONS as exc:
        raise StatementError(
            f"internal error: {type(exc).__name__}: {exc}",
            sql=sql) from exc


def _rejected(diagnostics: tuple[Diagnostic, ...]) -> AnalysisError:
    """The error strict mode raises for a statement's violations."""
    return AnalysisError(
        "statement rejected by strict analysis:\n"
        + "\n".join(d.render() for d in diagnostics),
        diagnostics=diagnostics)


class Session:
    """One connection's view of the database."""

    def __init__(self, database: "Database", session_id: int):
        self.database = database
        self.id = session_id
        self._warehouse: Optional[str] = None
        self._as_of: Optional[Timestamp] = None
        self._role: str = "sysadmin"
        self._analyze_level: str = "warn"
        self._autocommit = True
        self._txn: Optional[Transaction] = None
        self._txn_began_at: Timestamp = 0
        self._txn_error: Optional[str] = None
        #: Transaction covering one executemany batch (no statement-level
        #: commits while set); distinct from the user-visible ``_txn``.
        self._batch_txn: Optional[Transaction] = None

    # -- settings ------------------------------------------------------------

    @property
    def settings(self) -> dict:
        """A snapshot of the session settings."""
        return {"warehouse": self._warehouse, "as_of": self._as_of,
                "role": self._role, "analyze_level": self._analyze_level}

    def set_setting(self, name: str, value: object) -> None:
        if name == "warehouse":
            self.use_warehouse(value)  # type: ignore[arg-type]
        elif name == "as_of":
            self.set_as_of(value)  # type: ignore[arg-type]
        elif name == "role":
            self.set_role(value)  # type: ignore[arg-type]
        elif name == "analyze_level":
            self.set_analyze_level(value)  # type: ignore[arg-type]
        else:
            raise UserError(
                f"unknown session setting {name!r} "
                f"(expected one of {', '.join(_SETTING_NAMES)})")

    def use_warehouse(self, name: Optional[str]) -> None:
        """Set (or clear) the session's default warehouse."""
        if name is not None and not self.database.warehouses.exists(name):
            raise CatalogError(f"unknown warehouse: {name}")
        self._warehouse = name

    def set_as_of(self, wall: Optional[Timestamp]) -> None:
        """Pin the session's reads to the snapshot at ``wall`` (None
        returns to reading the current snapshot)."""
        if wall is not None and not isinstance(wall, int):
            raise UserError(f"AS-OF time must be a timestamp, got {wall!r}")
        self._as_of = wall

    @contextmanager
    def as_of(self, wall: Timestamp):
        """Temporarily pin reads to the snapshot at ``wall``."""
        saved = self._as_of
        self.set_as_of(wall)
        try:
            yield self
        finally:
            self._as_of = saved

    def set_role(self, role: str) -> None:
        if not isinstance(role, str) or not role:
            raise UserError(f"role must be a non-empty string, got {role!r}")
        self._role = role

    def set_analyze_level(self, level: str) -> None:
        """Set the strictness of the static analyzer for this session:
        ``"warn"`` (the default) attaches diagnostics without blocking,
        ``"error"`` rejects any statement whose analysis reports a
        warning or error before it executes."""
        if level not in ("warn", "error"):
            raise UserError(
                f"analyze_level must be 'warn' or 'error', got {level!r}")
        self._analyze_level = level

    # -- transactions --------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit transaction is open on this session."""
        return self._txn is not None

    @property
    def autocommit(self) -> bool:
        """DB-API autocommit mode. True (the default) commits every
        statement individually; False opens an implicit transaction on the
        first statement, closed by :meth:`commit` / :meth:`rollback`."""
        return self._autocommit

    @autocommit.setter
    def autocommit(self, value: bool) -> None:
        if value and self._txn is not None:
            raise TransactionError(
                "cannot enable autocommit with a transaction in progress; "
                "COMMIT or ROLLBACK first")
        self._autocommit = bool(value)

    def begin(self) -> None:
        """Open an explicit transaction (SQL: ``BEGIN``).

        The snapshot is the latest HLC point: everything committed so far
        is visible, every later commit — even within the same simulated
        instant — is not.
        """
        if self._txn is not None:
            raise TransactionError("a transaction is already in progress")
        self._txn = self.database.txns.begin_at_latest()
        self._txn_began_at = self.database.clock.now()
        self._txn_error = None

    def commit(self) -> None:
        """Commit the open transaction (SQL: ``COMMIT``).

        A no-op when no transaction is open (DB-API convention). On
        failure — a first-committer-wins conflict or a lock timeout — the
        transaction is rolled back automatically and the error re-raised;
        the session is immediately usable (callers retry from BEGIN).
        """
        txn = self._txn
        if txn is None:
            return
        if self._txn_error is not None:
            raise TransactionError(
                f"cannot COMMIT: current transaction is aborted "
                f"({self._txn_error}); issue ROLLBACK")
        try:
            txn.commit()
        except BaseException:
            self._txn = None
            self._txn_error = None
            if txn.committed is None and not txn.aborted:
                txn.abort()
            raise
        self._txn = None
        self._txn_error = None

    def rollback(self) -> None:
        """Discard the open transaction (SQL: ``ROLLBACK``); clears the
        poisoned state. A no-op when no transaction is open."""
        txn = self._txn
        self._txn = None
        self._txn_error = None
        if txn is not None and txn.committed is None and not txn.aborted:
            txn.abort()

    def savepoint(self, name: str) -> None:
        """Checkpoint the open transaction (SQL: ``SAVEPOINT name``)."""
        if self._txn is None:
            raise TransactionError("SAVEPOINT requires an open transaction")
        self._txn.savepoint(name)

    def rollback_to(self, name: str) -> None:
        """Restore the open transaction to a savepoint (SQL: ``ROLLBACK
        TO name``); the transaction stays open and is un-poisoned."""
        if self._txn is None:
            raise TransactionError(
                "ROLLBACK TO requires an open transaction")
        self._txn.rollback_to(name)
        self._txn_error = None

    @contextmanager
    def transaction(self):
        """Scoped transaction: BEGIN on entry; COMMIT on clean exit,
        ROLLBACK when the body raises::

            with session.transaction():
                session.execute("INSERT INTO t VALUES (1)")
                session.execute("UPDATE t SET a = a + 1")
        """
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        else:
            self.commit()

    def _active_txn(self) -> Optional[Transaction]:
        return self._txn if self._txn is not None else self._batch_txn

    def _poison(self, exc: BaseException) -> None:
        """Mark the open transaction as failed: nothing but ROLLBACK (or
        ROLLBACK TO a savepoint) will be accepted until then."""
        if self._txn is not None and self._txn_error is None:
            self._txn_error = str(exc).split("\n", 1)[0]

    @contextmanager
    def _execution_guard(self):
        try:
            yield
        except Exception as exc:
            self._poison(exc)
            raise

    @contextmanager
    def _statement_scope(self, sql: str):
        """Error boundary + transaction poisoning, as one scope (the
        cursor's fetch path uses it for errors surfacing mid-stream)."""
        with self._execution_guard():
            with statement_boundary(sql):
                yield

    def _pre_statement(self, statement: n.Statement,
                       plan: Optional[lp.PlanNode]) -> None:
        """Per-statement gatekeeping: reject anything but ROLLBACK on a
        poisoned transaction, open the implicit transaction when
        autocommit is off, and run strict analysis over ``plan``, the
        statement's bound plan."""
        if self._txn_error is not None:
            raise TransactionError(
                f"current transaction is aborted by a prior error "
                f"({self._txn_error}); issue ROLLBACK")
        if (not self._autocommit and self._txn is None
                and self._batch_txn is None
                and not isinstance(statement, _CONTROL_STATEMENTS)):
            self.begin()
        self._enforce_strict(statement, plan)

    #: Attempt budget of one auto-commit DML statement under contention.
    _AUTOCOMMIT_ATTEMPTS = 5

    def _stage_autocommit(self, stage):
        """Run ``stage(txn)`` in the transaction a DML statement belongs
        to: the session's open (or batch) transaction — left open — or an
        ephemeral one committed here (the auto-commit path).

        Ephemeral transactions retry on :class:`LockConflict` — a
        concurrent committer winning the first-committer-wins race, or a
        lock wait timing out — from a fresh snapshot, so single-statement
        auto-commit DML under the server behaves like the one-statement
        transaction it is, instead of surfacing retryable races.
        """
        active = self._active_txn()
        if active is not None:
            return stage(active)
        last_conflict: Optional[BaseException] = None
        for __ in range(self._AUTOCOMMIT_ATTEMPTS):
            txn = self.database.txns.begin_at_latest()
            try:
                result = stage(txn)
                txn.commit()
                return result
            except LockConflict as exc:
                if txn.committed is None and not txn.aborted:
                    txn.abort()
                last_conflict = exc
            except BaseException:
                if txn.committed is None and not txn.aborted:
                    txn.abort()
                raise
        assert last_conflict is not None
        raise last_conflict

    @contextmanager
    def _batch_transaction(self) -> Iterator[None]:
        """One transaction covering a whole ``executemany`` batch, so a
        mid-batch error rolls back every bind set (no partial commit).
        Inside an explicit transaction the batch just stages there."""
        if self._txn is not None or self._batch_txn is not None:
            yield
            return
        txn = self.database.txns.begin_at_latest()
        self._batch_txn = txn
        try:
            yield
            txn.commit()
        except BaseException:
            if txn.committed is None and not txn.aborted:
                txn.abort()
            raise
        finally:
            self._batch_txn = None

    # -- execution entry points ----------------------------------------------

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse ``sql`` once into a reusable :class:`PreparedStatement`.

        A SELECT, INSERT, UPDATE or DELETE is bound eagerly (warming the
        shared plan cache), so a statement that does not bind — an
        unknown table or column, a type error, an INSERT arity mismatch,
        a column assigned twice, a parameter used in conflicting type
        contexts — raises here, not at execute (under strict mode, as an
        :class:`~repro.errors.AnalysisError`). Each execution checks its
        bind values against the slot types of the plan it runs, so a
        value of the wrong type is refused before the statement runs.
        """
        with statement_boundary(sql):
            statement, parameters = parse_prepared(sql)
            prepared = PreparedStatement(self, sql, statement,
                                         ParameterSpec(parameters))
            self._bound(prepared)  # bind eagerly (and warm the shared cache)
            return prepared

    def execute(self, sql: str, binds: object = None,
                ) -> Optional[QueryResult]:
        """Execute a single statement; returns rows for SELECTs.

        A one-shot statement takes a prepared one's steps — bind once,
        check the binds against that plan's slot types, analyze that plan
        under strict mode, run it — but is bound fresh, not cached (use
        :meth:`prepare` for a statement that runs repeatedly). One that
        does not bind, or whose binds fail their check, raises before it
        runs and leaves an open transaction healthy.
        """
        with statement_boundary(sql):
            result, __ = self._execute_prepared(self._one_shot(sql), binds)
            return result

    def query(self, sql: str, binds: object = None) -> QueryResult:
        result = self.execute(sql, binds)
        if result is None:
            raise UserError("statement did not return rows")
        return result

    def query_at(self, sql: str, wall: Timestamp,
                 binds: object = None) -> QueryResult:
        """Time travel: evaluate a query against the snapshot at ``wall``.

        This is the oracle of the paper's randomized testing (section
        6.1): "if you run the defining query as of the data timestamp, you
        should get the same result as in the DT." Works inside an open
        transaction too — the read is historical and ignores staged
        writes. It is bound, bind-checked and (under strict mode) analyzed
        as :meth:`execute` does.
        """
        with statement_boundary(sql):
            statement = self._one_shot(sql)
            if not statement.is_query:
                raise UserError("query_at requires a SELECT")
            plan, slot_types = self._bound(statement)
            values = statement.spec.bind(binds, slot_types)
            self._enforce_strict(statement.statement, plan)
            return self._evaluate_select(plan, values, wall=wall)

    def execute_script(self, sql: str) -> list[Optional[QueryResult]]:
        """Execute a ``;``-separated script (no bind parameters).

        Transaction control works textually: a script may bracket its
        statements with ``BEGIN; ...; COMMIT``.
        """
        with statement_boundary(sql):
            statements = parse_statements(sql)
        results = []
        empty = ParameterSpec()
        for statement in statements:
            one_shot = PreparedStatement(self, sql, statement, empty,
                                         cached=False)
            results.append(self._execute_prepared(one_shot, None)[0])
        return results

    def _one_shot(self, sql: str) -> PreparedStatement:
        statement, parameters = parse_prepared(sql)
        return PreparedStatement(self, sql, statement,
                                 ParameterSpec(parameters), cached=False)

    def cursor(self) -> "Cursor":
        from repro.api.cursor import Cursor

        return Cursor(self)

    def analyze(self, sql: str) -> AnalysisReport:
        """Statically analyze one statement without executing it.

        Returns an :class:`~repro.analysis.AnalysisReport`: structured
        :class:`~repro.analysis.Diagnostic` objects with stable
        ``RPR0xx`` codes, severities, source positions, and fix hints,
        plus the statically inferred output schema when the statement is
        a query that binds. Problems *in the statement* never raise —
        they come back as diagnostics (a syntax error is an ``RPR001``
        report, not a :class:`~repro.errors.ParseError`).
        """
        with statement_boundary(sql):
            try:
                statement, parameters = parse_prepared(sql)
            except ParseError as exc:
                from repro.analysis.analyzer import diagnostic_from_error

                return AnalysisReport(sql, (diagnostic_from_error(exc),))
            report = analyze_statement(
                statement, self.database.catalog, self.database.registry,
                parameters=ParameterSpec(parameters), sql=sql)
            select = getattr(statement, "select", None)
            if isinstance(select, n.Select):
                extra = self._durability_diagnostics(select)
                if extra:
                    report = AnalysisReport(sql,
                                            report.diagnostics + extra,
                                            schema=report.schema)
            return report

    def _durability_diagnostics(self, select: n.Select) -> tuple:
        """RPR031 for referenced dynamic tables whose aggregate
        accumulator state is not covered by the latest checkpoint
        (durable databases only; in-memory databases have nothing to
        restore, so the diagnostic never fires)."""
        durability = self.database.durability
        if durability is None:
            return ()
        from repro.analysis.diagnostics import make_diagnostic

        diagnostics = []
        for name, dt in self._referenced_dynamic_tables(select):
            if durability.agg_recovery_status(dt) == "rebuild":
                diagnostics.append(make_diagnostic(
                    "RPR031",
                    f"dynamic table {name!r} carries aggregate state not "
                    f"covered by the latest checkpoint; after a restart "
                    f"its next incremental refresh rebuilds the "
                    f"accumulators",
                    hint="run Database.checkpoint() to capture it"))
        return tuple(diagnostics)

    def _bound(self, statement: PreparedStatement,
               ) -> tuple[Optional[lp.PlanNode], SlotTypes]:
        """``statement.bound()``, the first step of every entry point:
        like the bind check that follows it, it runs before the statement
        reaches the engine, so its failure never poisons an open
        transaction. Under strict mode a statement that does not bind is
        rejected with the diagnostic :meth:`analyze` reports for it."""
        try:
            return statement.bound()
        except UserError as exc:
            if self._analyze_level != "error":
                raise
            raise _rejected((diagnostic_from_error(
                exc, self.database.catalog),)) from exc

    def _enforce_strict(self, statement: n.Statement,
                        plan: Optional[lp.PlanNode]) -> None:
        """Strict mode (``analyze_level="error"``): refuse to execute a
        statement whose analysis reports warnings or errors. A SELECT or
        DML statement is analyzed over ``plan``, the plan that then runs,
        so strict mode binds nothing again."""
        if self._analyze_level != "error":
            return
        if isinstance(plan, lp.Write):
            report = analyze_bound_write(statement)
        elif isinstance(statement, n.Query):
            report = analyze_bound_query(statement.select, plan)
        elif isinstance(statement, (n.CreateDynamicTable, n.CreateView)):
            report = analyze_statement(statement, self.database.catalog,
                                       self.database.registry)
        else:
            return
        if report.strict_violations:
            raise _rejected(report.strict_violations)

    def explain(self, sql: str, optimized: bool = True) -> str:
        """The bound (and by default optimized) logical plan of a query,
        rendered as an indented tree.

        Filters directly over scans additionally report zone-map pruning
        statistics — how many of the table's micro-partitions the
        columnar scan path reads versus skips under the filter's
        pushed-down bounds, resolved against the current snapshot — so
        partition pruning is observable without tracing the executor.

        Aggregate and Distinct nodes report their incremental refresh
        strategy: ``stateful`` (the O(|delta|) accumulator fold of
        :mod:`repro.ivm.aggstate`) or ``recompute`` (affected-group
        endpoint recomputation), with the reason when the node cannot be
        maintained statefully.
        """
        with statement_boundary(sql):
            statement, parameters = parse_prepared(sql)
            if not isinstance(statement, n.Query):
                raise UserError("explain requires a SELECT")
            plan = build_plan(statement.select, self.database.catalog,
                              self.database.registry,
                              parameters=ParameterSpec(parameters))
            if optimized:
                plan = optimize(plan)
            lines = [plan.pretty()]
            from repro.engine.executor import scan_pruning_stats

            # Stats read through the same resolver a SELECT would use
            # (open transaction / AS-OF included), and are strictly
            # best-effort: EXPLAIN must keep working on plans whose
            # tables cannot be read yet (e.g. an uninitialized dynamic
            # table), exactly as it did before it reported stats.
            try:
                reader, __ = self._read_state(())
                stats = scan_pruning_stats(plan, reader)
            except ReproError:
                stats = []
            for table, total, scanned, skipped in stats:
                lines.append(
                    f"-- pruning {table}: {scanned}/{total} partitions "
                    f"scanned ({skipped} skipped by zone maps)")
            from repro.ivm.aggstate import refresh_strategy

            for node, strategy, reason in refresh_strategy(plan):
                detail = ("O(|delta|) accumulator fold" if strategy == "stateful"
                          else f"affected-group endpoint recompute: {reason}")
                lines.append(
                    f"-- refresh {node._describe()}: {strategy} ({detail})")
            # Parallel-refresh observability, same `-- <section> ...`
            # format: the parallelism each referenced DT's most recent
            # executed refresh actually chose — its dependency-wave
            # placement and DAG worker count.
            lines.extend(self._parallel_lines(statement.select))
            # Failure-driven staleness, same `-- <section> ...` format:
            # which referenced DTs are serving old data because they are
            # suspended, failing, or skipping behind a failed upstream.
            lines.extend(self._staleness_lines(statement.select))
            # Analyzer warnings, in the same `-- <section> ...` format as
            # the pruning and refresh-strategy reports above.
            report = analyze_bound_query(statement.select, plan, sql=sql)
            for diag in report.strict_violations:
                lines.append(f"-- analysis {diag.render()}")
            # Durability state, in the same `-- <section> ...` format:
            # what a process restart would replay, and which referenced
            # DTs would restore their aggregate state exactly.
            durability = self.database.durability
            if durability is not None:
                status = durability.status()
                checkpoint_note = (
                    f"last checkpoint seq {status['last_checkpoint_seq']}"
                    if status["last_checkpoint_seq"]
                    else "no checkpoint yet")
                lines.append(
                    f"-- durability wal: {status['wal_bytes']} bytes, "
                    f"{status['records_since_checkpoint']} records to "
                    f"replay on restart ({checkpoint_note})")
                for name, dt in self._referenced_dynamic_tables(
                        statement.select):
                    agg = durability.agg_recovery_status(dt)
                    if agg is None:
                        continue
                    lines.append(
                        f"-- durability {name}: aggregate state "
                        + ("restored exactly after a restart"
                           if agg == "intact"
                           else "rebuilt on the next refresh after a "
                                "restart"))
            return "\n".join(lines)

    def _referenced_dynamic_tables(
            self, select: n.Select) -> list[tuple[str, DynamicTable]]:
        """The dynamic tables ``select`` reads, as ``(name, dt)`` pairs
        sorted by name; ``[]`` when the query does not bind (binding
        problems are reported as RPR00x by the analyzer)."""
        from repro.core.evolution import collect_source_names

        catalog = self.database.catalog
        try:
            names = sorted(collect_source_names(select, catalog))
        except ReproError:
            return []
        found = []
        for name in names:
            try:
                entry = catalog.get(name)
            except ReproError:
                continue
            if entry.kind == "dynamic table":
                found.append((name, entry.payload))
        return found

    def _parallel_lines(self, select: n.Select) -> list[str]:
        """``-- parallel <dt>: ...`` EXPLAIN lines for every referenced
        DT whose most recent executed refresh recorded parallelism."""
        lines: list[str] = []
        for name, dt in self._referenced_dynamic_tables(select):
            for past in reversed(dt.refresh_history):
                if past.skipped:
                    continue
                info = past.parallel
                if info:
                    lines.append(f"-- parallel {name}: wave {info['wave']}/"
                                 f"{info['waves']}, workers={info['workers']}")
                break
        return lines

    def _staleness_lines(self, select: n.Select) -> list[str]:
        """``-- staleness <dt>: ...`` EXPLAIN lines for every referenced
        DT serving stale data because of failures (its own or an
        upstream's) — section 3.3.3's graceful degradation made visible
        at query time."""
        from repro.scheduler.liveness import staleness_report
        from repro.util.timeutil import format_duration

        dts = [dt for __, dt in self._referenced_dynamic_tables(select)]
        lines: list[str] = []
        now = self.database.clock.now()
        for entry in staleness_report(dts, now):
            if entry.serving is None:
                serving = "no readable version yet"
            else:
                lag = format_duration(entry.lag) if entry.lag else "0 seconds"
                serving = (f"serving data as of t={entry.serving} "
                           f"({lag} behind)")
            lines.append(f"-- staleness {entry.dt_name}: {entry.cause} — "
                         f"{serving}; {entry.detail}")
        return lines

    # -- prepared-statement execution (called by PreparedStatement) ----------

    def _execute_prepared(self, prepared: PreparedStatement,
                          binds: object) -> tuple[Optional[QueryResult], int]:
        with statement_boundary(prepared.sql):
            plan, slot_types = self._bound(prepared)
            values = prepared.spec.bind(binds, slot_types)
            return self._dispatch(prepared.statement, plan, values)

    def _executemany_prepared(self, prepared: PreparedStatement,
                              bind_sets: Iterable[object]) -> int:
        with statement_boundary(prepared.sql):
            statement, spec = prepared.statement, prepared.spec
            plan, slot_types = self._bound(prepared)
            self._pre_statement(statement, plan)
            # Unlike single statements, the whole batch runs inside the
            # guard: a mid-batch bind error inside an *explicit*
            # transaction leaves earlier bind sets staged there, so the
            # transaction must poison until the user rolls back.
            with self._execution_guard():
                if isinstance(plan, lp.Write) and plan.source is None:
                    # INSERT ... VALUES, column at a time (see
                    # :mod:`repro.api.insert`): one block for the whole
                    # batch, staged and committed once.
                    count, columns = spec.bind_columns(bind_sets, slot_types)
                    block = values_block(plan, columns, count,
                                         self._write_ctx(()), batch=True)
                    return self._stage_insert(plan.table, block)
                total = 0
                with self._batch_transaction():
                    for binds in bind_sets:
                        __, rowcount = self._dispatch_inner(
                            statement, plan, spec.bind(binds, slot_types))
                        total += max(rowcount, 0)
                return total

    def _stream_prepared(self, prepared: PreparedStatement, binds: object,
                         ) -> tuple[Schema, Iterator[Relation]]:
        """Schema + per-micro-partition batch iterator for a SELECT (the
        cursor's read path)."""
        with statement_boundary(prepared.sql):
            if not prepared.is_query:
                raise UserError("cannot stream a non-SELECT statement")
            plan, slot_types = self._bound(prepared)
            values = prepared.spec.bind(binds, slot_types)
            assert plan is not None
            self._pre_statement(prepared.statement, plan)
            with self._execution_guard():
                reader, ctx = self._read_state(values)
                return plan.schema, stream_evaluate(plan, reader, ctx)

    # -- reads ---------------------------------------------------------------

    @property
    def _read_wall(self) -> Timestamp:
        return (self._as_of if self._as_of is not None
                else self.database.clock.now())

    def _read_state(self, values: tuple[Value, ...],
                    wall: Optional[Timestamp] = None):
        if wall is None and self._as_of is None:
            txn = self._active_txn()
            if txn is not None:
                # Reads inside a transaction resolve through it: the
                # snapshot taken at BEGIN plus the txn's staged writes.
                ts = (self._txn_began_at if txn is self._txn
                      else self.database.clock.now())
                return txn, EvalContext(timestamp=ts, role=self._role,
                                        params=values)
        ts = wall if wall is not None else self._read_wall
        if wall is None and self._as_of is None:
            # Default reads take an HLC-consistent snapshot (never a torn
            # multi-table commit); CURRENT_TIMESTAMP still reports now.
            reader = self.database.txns.reader()
        else:
            reader = self.database.txns.reader(ts)
        ctx = EvalContext(timestamp=ts, role=self._role, params=values)
        return reader, ctx

    def _evaluate_select(self, plan: lp.PlanNode, values: tuple[Value, ...],
                         wall: Optional[Timestamp] = None) -> QueryResult:
        reader, ctx = self._read_state(values, wall)
        return QueryResult.from_relation(evaluate(plan, reader, ctx))

    # -- statement dispatch --------------------------------------------------

    def _dispatch(self, statement: n.Statement,
                  plan: Optional[lp.PlanNode], values: tuple[Value, ...],
                  ) -> tuple[Optional[QueryResult], int]:
        """Execute one statement, bound to ``plan`` (None for DDL and
        control statements); returns (rows-or-None, rowcount).

        ``rowcount`` follows DB-API: rows affected for DML, row count for
        SELECTs, -1 for DDL and control statements.
        """
        # Transaction control first: ROLLBACK must work on a poisoned
        # transaction, and COMMIT of one wants its specific error.
        if isinstance(statement, n.RollbackTransaction):
            if statement.savepoint is not None:
                self.rollback_to(statement.savepoint)
            else:
                self.rollback()
            return None, -1
        if isinstance(statement, n.CommitTransaction):
            self.commit()
            return None, -1
        self._pre_statement(statement, plan)
        if isinstance(statement, n.BeginTransaction):
            self.begin()
            return None, -1
        if isinstance(statement, n.Savepoint):
            self.savepoint(statement.name)
            return None, -1
        with self._execution_guard():
            return self._dispatch_inner(statement, plan, values)

    def _dispatch_inner(self, statement: n.Statement,
                        plan: Optional[lp.PlanNode],
                        values: tuple[Value, ...],
                        ) -> tuple[Optional[QueryResult], int]:
        db = self.database
        if isinstance(plan, lp.Write):
            return None, self._run_write(plan, values)
        if plan is not None:  # a SELECT's
            result = self._evaluate_select(plan, values)
            return result, len(result.rows)
        if isinstance(statement, n.CreateTable):
            schema = Schema(Column(col.name, t.type_from_name(col.type_name))
                            for col in statement.columns)
            db.catalog.create_table(statement.name, schema,
                                    or_replace=statement.or_replace,
                                    if_not_exists=statement.if_not_exists)
            return None, -1
        if isinstance(statement, n.CreateView):
            db.catalog.create_view(statement.name, "", statement.query,
                                   or_replace=statement.or_replace)
            return None, -1
        if isinstance(statement, n.CreateDynamicTable):
            warehouse = statement.warehouse or self._warehouse
            if warehouse is None:
                raise UserError(
                    "dynamic table requires WAREHOUSE (no session default "
                    "warehouse is set)")
            db.create_dynamic_table(
                statement.name, statement.query,
                target_lag=statement.target_lag,
                warehouse=warehouse,
                refresh_mode=statement.refresh_mode,
                initialize=statement.initialize,
                or_replace=statement.or_replace)
            return None, -1
        if isinstance(statement, n.Drop):
            db.catalog.drop(statement.name, statement.kind,
                            statement.if_exists)
            return None, -1
        if isinstance(statement, n.Undrop):
            db.catalog.undrop(statement.name, statement.kind)
            return None, -1
        if isinstance(statement, n.AlterDynamicTable):
            dt = db.dynamic_table(statement.name)
            detail = statement.action
            if statement.action == "suspend":
                dt.suspend()
            elif statement.action == "resume":
                dt.resume()
            elif statement.action == "refresh":
                db.refresh_dynamic_table(statement.name)
            elif statement.action == "set":
                options = dict(statement.options)
                apply_policy_options(dt, options)
                # Round-trippable detail string: recovery replays the
                # policy change from the DDL log.
                detail = encode_option_detail(options)
            db.catalog.log_alter("dynamic table", statement.name, detail)
            return None, -1
        if isinstance(statement, n.AlterTableRename):
            db.catalog.rename(statement.name, statement.new_name)
            return None, -1
        if isinstance(statement, n.CloneEntity):
            if statement.kind == "dynamic table":
                db.clone_dynamic_table(statement.source, statement.name)
            else:
                db.clone_table(statement.source, statement.name)
            return None, -1
        if isinstance(statement, n.Recluster):
            db.recluster(statement.name)
            return None, -1
        raise UserError(f"unsupported statement: {type(statement).__name__}")

    # -- DML -----------------------------------------------------------------

    def _write_ctx(self, values: tuple[Value, ...]) -> EvalContext:
        # DML always writes against *now* — AS-OF pins reads, not writes.
        return EvalContext(timestamp=self.database.clock.now(),
                           role=self._role, params=values)

    def _run_write(self, write: lp.Write, values: tuple[Value, ...]) -> int:
        """Run one bound INSERT, UPDATE or DELETE with ``values`` bound;
        returns the rows affected."""
        if write.kind == "insert":
            # The block is computed up front (reading through the open
            # transaction when there is one), so a retried stage
            # re-inserts identical rows.
            if write.source is None:
                block = values_block(write, [[value] for value in values], 1,
                                     self._write_ctx(()))
            else:
                result = evaluate(write.source, *self._read_state(values))
                block = cast_block(result.columns, write.positions,
                                   write.schema, len(result))
            return self._stage_insert(write.table, block)
        source = write.source
        assert source is not None
        ctx = self._write_ctx(values)

        def stage(txn: Transaction) -> int:
            # Evaluated against the transaction: its snapshot plus its
            # own staged writes.
            rows = evaluate(source, txn, ctx)
            if write.kind == "delete":
                txn.delete_rows(write.table, rows.row_ids)
            else:
                txn.update_rows(write.table,
                                dict(zip(rows.row_ids, rows.rows)))
            return len(rows)

        return self._stage_autocommit(stage)

    def _stage_insert(self, table: str, block: list) -> int:
        count = len(block[0]) if block else 0

        def stage(txn: Transaction) -> int:
            txn.insert_rows(table, block)
            return count

        return self._stage_autocommit(stage)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open txn" if self._txn is not None else "autocommit"
        return (f"Session(#{self.id}, warehouse={self._warehouse!r}, "
                f"as_of={self._as_of!r}, role={self._role!r}, {state})")
