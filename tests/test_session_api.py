"""Tests for the layered Session / PreparedStatement / Cursor API."""

import pytest

from repro import Cursor, Database, PreparedStatement, Session
from repro.api import prepared as prepared_module
from repro.api import session as session_module
from repro.engine.relation import Relation
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.errors import (BindParameterError, CatalogError, EvaluationError,
                          StatementError, UserError)
from repro.txn.manager import SnapshotReader
from repro.util.timeutil import MINUTE


@pytest.fixture
def db():
    database = Database()
    database.create_warehouse("wh")
    database.execute("CREATE TABLE t (a int, b text)")
    database.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    return database


# ---------------------------------------------------------------------------
# Session state
# ---------------------------------------------------------------------------

class TestSessionState:
    def test_sessions_are_distinct_objects(self, db):
        first, second = db.session(), db.session()
        assert isinstance(first, Session)
        assert first is not second
        assert first.id != second.id

    def test_as_of_isolated_between_sessions(self, db):
        pinned, live = db.session(), db.session()
        past = db.now
        db.clock.advance(MINUTE)
        db.execute("INSERT INTO t VALUES (4, 'w')")
        pinned.set_as_of(past)
        assert len(pinned.query("SELECT * FROM t").rows) == 3
        assert len(live.query("SELECT * FROM t").rows) == 4
        # The facade's default session is unaffected too.
        assert len(db.query("SELECT * FROM t").rows) == 4

    def test_as_of_context_manager_restores(self, db):
        session = db.session()
        past = db.now
        db.clock.advance(MINUTE)
        db.execute("INSERT INTO t VALUES (4, 'w')")
        with session.as_of(past):
            assert len(session.query("SELECT * FROM t").rows) == 3
        assert len(session.query("SELECT * FROM t").rows) == 4

    def test_as_of_pins_reads_not_writes(self, db):
        session = db.session()
        session.set_as_of(db.now)
        db.clock.advance(MINUTE)
        session.execute("INSERT INTO t VALUES (9, 'new')")
        # The write landed (visible to a live session)...
        assert (9, "new") in db.query("SELECT * FROM t").rows
        # ...but the pinned session still reads the old snapshot.
        assert len(session.query("SELECT * FROM t").rows) == 3

    def test_default_warehouse_fills_create_dynamic_table(self, db):
        session = db.session()
        session.use_warehouse("wh")
        session.execute(
            "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' "
            "AS SELECT a FROM t")
        assert db.dynamic_table("d").warehouse == "wh"

    def test_missing_warehouse_without_default_fails(self, db):
        with pytest.raises(UserError, match="WAREHOUSE"):
            db.execute("CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' "
                       "AS SELECT a FROM t")

    def test_explicit_warehouse_beats_session_default(self, db):
        db.create_warehouse("other")
        session = db.session()
        session.use_warehouse("other")
        session.execute(
            "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' "
            "WAREHOUSE = wh AS SELECT a FROM t")
        assert db.dynamic_table("d").warehouse == "wh"

    def test_unknown_warehouse_rejected_as_default(self, db):
        with pytest.raises(CatalogError):
            db.session().use_warehouse("ghost")

    def test_role_setting_reaches_current_role(self, db):
        session = db.session()
        session.set_role("analyst")
        assert session.query("SELECT current_role() r").rows == [("analyst",)]
        assert db.query("SELECT current_role() r").rows == [("sysadmin",)]

    def test_settings_snapshot_and_generic_setter(self, db):
        session = db.session()
        session.set_setting("warehouse", "wh")
        session.set_setting("role", "ops")
        assert session.settings["warehouse"] == "wh"
        assert session.settings["role"] == "ops"
        with pytest.raises(UserError):
            session.set_setting("nope", 1)
        with pytest.raises(UserError):
            session.set_setting("as_of", "not a timestamp")


# ---------------------------------------------------------------------------
# Bind parameters
# ---------------------------------------------------------------------------

class TestBindParameters:
    def test_positional_binds(self, db):
        statement = db.prepare("SELECT b FROM t WHERE a = ?")
        assert statement.query((1,)).rows == [("x",)]
        assert statement.query((3,)).rows == [("z",)]

    def test_named_binds(self, db):
        statement = db.prepare(
            "SELECT a FROM t WHERE b = :want OR a > :floor")
        assert sorted(statement.query({"want": "x", "floor": 2}).rows) == \
            [(1,), (3,)]

    def test_named_bind_reused_occupies_one_slot(self, db):
        statement = db.prepare(
            "SELECT a FROM t WHERE a = :v OR a = :v + 1")
        assert statement.parameter_count == 1
        assert sorted(statement.query({"v": 1}).rows) == [(1,), (2,)]

    def test_mixing_styles_rejected(self, db):
        with pytest.raises(BindParameterError, match="mix"):
            db.prepare("SELECT a FROM t WHERE a = ? OR b = :name")

    def test_missing_and_extra_binds(self, db):
        positional = db.prepare("SELECT a FROM t WHERE a = ?")
        with pytest.raises(BindParameterError):
            positional.execute()
        with pytest.raises(BindParameterError, match="takes 1"):
            positional.execute((1, 2))
        named = db.prepare("SELECT a FROM t WHERE a = :v")
        with pytest.raises(BindParameterError, match="missing"):
            named.execute({})
        with pytest.raises(BindParameterError, match="unknown"):
            named.execute({"v": 1, "typo": 2})

    def test_binds_on_parameterless_statement_rejected(self, db):
        statement = db.prepare("SELECT a FROM t")
        assert len(statement.query().rows) == 3
        with pytest.raises(BindParameterError, match="no bind"):
            statement.execute((1,))

    def test_unbindable_value_rejected(self, db):
        statement = db.prepare("SELECT a FROM t WHERE a = ?")
        with pytest.raises(BindParameterError, match="no SQL type"):
            statement.execute((object(),))

    def test_type_mismatch_rejected_at_bind_time(self, db):
        # The binder infers the parameter's type from its comparison
        # context (a INT), so a wrongly-typed value fails the bind itself
        # instead of surfacing mid-execution on some row.
        statement = db.prepare("SELECT a FROM t WHERE a > ?")
        with pytest.raises(BindParameterError, match="should be INT"):
            statement.execute(("not a number",))
        # The statement stays usable with well-typed binds.
        assert sorted(statement.query((1,)).rows) == [(2,), (3,)]

    def test_conflicting_parameter_contexts_fail_at_prepare(self, db):
        with pytest.raises(UserError, match="conflicting type contexts"):
            db.prepare("SELECT a FROM t WHERE a > :p AND b LIKE :p")

    def test_null_bind(self, db):
        statement = db.prepare("SELECT a FROM t WHERE b = ?")
        assert statement.query((None,)).rows == []

    def test_parameter_in_projection_and_cast(self, db):
        statement = db.prepare("SELECT a + ?, cast(? as text) FROM t "
                               "WHERE a = 1")
        assert statement.query((10, 5)).rows == [(11, "5")]

    def test_one_shot_execute_accepts_binds(self, db):
        assert db.query("SELECT b FROM t WHERE a = ?", (2,)).rows == [("y",)]
        session = db.session()
        assert session.query("SELECT b FROM t WHERE a = :k",
                             {"k": 3}).rows == [("z",)]

    def test_parameters_rejected_outside_prepared_context(self, db):
        # A DT defining query can never carry bind parameters.
        with pytest.raises(UserError, match="parameter"):
            db.create_dynamic_table("d", "SELECT a FROM t WHERE a = ?",
                                    "1 minute", "wh")


# ---------------------------------------------------------------------------
# Prepared statements: caching and DML
# ---------------------------------------------------------------------------

class TestPreparedStatements:
    def test_prepare_returns_prepared(self, db):
        statement = db.prepare("SELECT a FROM t")
        assert isinstance(statement, PreparedStatement)
        assert statement.is_query

    def test_reexecution_does_zero_parse_or_optimize_work(self, db,
                                                          monkeypatch):
        statement = db.prepare("SELECT b FROM t WHERE a = ?")
        statement.execute((1,))  # warm

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("parse/optimize ran on re-execution")

        monkeypatch.setattr(session_module, "parse_prepared", forbidden)
        monkeypatch.setattr(prepared_module, "build_plan", forbidden)
        monkeypatch.setattr(prepared_module, "optimize", forbidden)
        assert statement.query((2,)).rows == [("y",)]
        assert statement.query((3,)).rows == [("z",)]

    def test_replan_after_ddl_is_transparent(self, db):
        statement = db.prepare("SELECT b FROM t WHERE a = ?")
        assert statement.query((1,)).rows == [("x",)]
        db.execute("CREATE TABLE unrelated (x int)")  # bumps catalog epoch
        assert statement.query((2,)).rows == [("y",)]

    def test_same_text_shares_cached_plan(self, db):
        db.prepare("SELECT a FROM t WHERE a = ?")
        hits_before = db.plan_cache.hits
        db.session().prepare("SELECT a FROM t WHERE a = ?")
        assert db.plan_cache.hits == hits_before + 1

    def test_prepared_dml_with_binds(self, db):
        insert = db.prepare("INSERT INTO t VALUES (?, ?)")
        assert insert.execute((4, "w")) is None
        update = db.prepare("UPDATE t SET b = :suffix WHERE a = :key")
        update.execute({"key": 4, "suffix": "W"})
        delete = db.prepare("DELETE FROM t WHERE a = ?")
        delete.execute((1,))
        assert sorted(db.query("SELECT * FROM t").rows) == \
            [(2, "y"), (3, "z"), (4, "W")]

    def test_executemany_inserts_in_one_transaction(self, db):
        table = db.catalog.versioned_table("t")
        versions_before = table.version_count
        insert = db.prepare("INSERT INTO t VALUES (?, ?)")
        count = insert.executemany([(10, "a"), (11, "b"), (12, "c")])
        assert count == 3
        assert table.version_count == versions_before + 1  # one commit
        assert len(db.query("SELECT * FROM t").rows) == 6

    def test_executemany_non_insert_runs_per_bind_set(self, db):
        update = db.prepare("UPDATE t SET b = ? WHERE a = ?")
        count = update.executemany([("X", 1), ("Y", 2)])
        assert count == 2
        assert sorted(db.query("SELECT b FROM t").rows) == \
            [("X",), ("Y",), ("z",)]

    def test_query_on_non_select_raises(self, db):
        statement = db.prepare("INSERT INTO t VALUES (7, 'q')")
        with pytest.raises(UserError, match="did not return rows"):
            statement.query()


# ---------------------------------------------------------------------------
# Cursors
# ---------------------------------------------------------------------------

class TestCursor:
    def test_fetch_interface(self, db):
        cursor = db.cursor()
        assert isinstance(cursor, Cursor)
        cursor.execute("SELECT a, b FROM t WHERE a >= ? ORDER BY a", (1,))
        assert cursor.description[0][0] == "a"
        assert cursor.fetchone() == (1, "x")
        assert cursor.fetchmany(1) == [(2, "y")]
        assert cursor.fetchall() == [(3, "z")]
        assert cursor.fetchone() is None
        assert cursor.fetchall() == []

    def test_iteration(self, db):
        cursor = db.cursor()
        cursor.execute("SELECT a FROM t ORDER BY a")
        assert [row for row in cursor] == [(1,), (2,), (3,)]

    def test_dml_sets_rowcount_and_no_results(self, db):
        cursor = db.cursor()
        cursor.execute("DELETE FROM t WHERE a > ?", (1,))
        assert cursor.rowcount == 2
        assert cursor.description is None
        with pytest.raises(UserError, match="no result set"):
            cursor.fetchone()

    def test_executemany(self, db):
        cursor = db.cursor()
        cursor.executemany("INSERT INTO t VALUES (?, ?)",
                           [(5, "p"), (6, "q")])
        assert cursor.rowcount == 2
        with pytest.raises(UserError):
            cursor.executemany("SELECT a FROM t", [()])

    def test_execute_accepts_prepared_statement(self, db):
        statement = db.prepare("SELECT a FROM t WHERE a = ?")
        cursor = db.cursor()
        assert cursor.execute(statement, (2,)).fetchall() == [(2,)]
        foreign = db.session().prepare("SELECT a FROM t")
        with pytest.raises(UserError, match="different session"):
            cursor.execute(foreign)

    def test_closed_cursor_rejects_use(self, db):
        cursor = db.cursor()
        cursor.close()
        with pytest.raises(UserError, match="closed"):
            cursor.execute("SELECT a FROM t")

    def test_context_manager_closes(self, db):
        with db.cursor() as cursor:
            cursor.execute("SELECT a FROM t")
            cursor.fetchone()
        with pytest.raises(UserError, match="closed"):
            cursor.fetchone()

    def test_aggregate_falls_back_to_materialized(self, db):
        cursor = db.cursor()
        cursor.execute("SELECT count(*) c, sum(a) s FROM t")
        assert cursor.fetchall() == [(3, 6)]

    def test_cursor_sees_session_as_of(self, db):
        session = db.session()
        past = db.now
        db.clock.advance(MINUTE)
        db.execute("INSERT INTO t VALUES (4, 'w')")
        session.set_as_of(past)
        cursor = session.cursor()
        cursor.execute("SELECT a FROM t")
        assert len(cursor.fetchall()) == 3


PARTITION_ROWS = 50
TOTAL_ROWS = 500


@pytest.fixture
def paged_db():
    """``big(id, val)``: ten micro-partitions, ids clustered by insertion
    order so an id range maps to a partition range."""
    database = Database()
    database.create_warehouse("wh")
    database.execute("CREATE TABLE big (id int, val int)")
    database.catalog.versioned_table("big").partition_rows = PARTITION_ROWS
    database.execute("INSERT INTO big VALUES " + ", ".join(
        f"({i}, {i % 10})" for i in range(TOTAL_ROWS)))
    return database


class TestCursorStreaming:
    """Pagination pulls micro-partitions lazily: fetchmany(k) never holds
    more than one partition beyond the page it serves."""

    PARTITION_ROWS = PARTITION_ROWS
    TOTAL_ROWS = TOTAL_ROWS

    @pytest.fixture
    def partition_counter(self, monkeypatch):
        pulled = {"count": 0}
        original = SnapshotReader.scan_partitions

        def counting(self, table):
            for partition in original(self, table):
                pulled["count"] += 1
                yield partition

        monkeypatch.setattr(SnapshotReader, "scan_partitions", counting)
        return pulled

    def test_fetchmany_pulls_only_needed_partitions(self, paged_db,
                                                    partition_counter):
        cursor = paged_db.cursor()
        cursor.execute("SELECT id FROM big")
        assert partition_counter["count"] == 0  # nothing pulled yet

        first = cursor.fetchmany(10)
        assert len(first) == 10
        assert partition_counter["count"] == 1  # one partition covers it
        # Buffered beyond the served page: at most one partition's rows.
        assert len(cursor._buffer) <= self.PARTITION_ROWS

        cursor.fetchmany(self.PARTITION_ROWS)
        assert partition_counter["count"] <= 3
        assert len(cursor._buffer) <= self.PARTITION_ROWS

        rest = cursor.fetchall()
        assert 10 + self.PARTITION_ROWS + len(rest) == self.TOTAL_ROWS
        assert partition_counter["count"] == \
            self.TOTAL_ROWS // self.PARTITION_ROWS

    def test_limit_stops_pulling_partitions(self, paged_db,
                                            partition_counter):
        cursor = paged_db.cursor()
        cursor.execute("SELECT id FROM big LIMIT 60")
        assert len(cursor.fetchall()) == 60
        assert partition_counter["count"] <= 2

    def test_zone_map_pruning_skips_partitions_in_stream(self, paged_db):
        # ids are clustered by insertion order, so an id range maps to a
        # partition range. With the execution context supplied, bind
        # parameters prune exactly like literals: only the 2 of 10
        # partitions whose zone maps admit id < 75 produce batches.
        from repro.engine.executor import stream_evaluate
        from repro.engine.expressions import EvalContext

        prepared = paged_db.prepare("SELECT id FROM big WHERE id < ?")
        reader = paged_db.txns.reader(paged_db.now)
        ctx = EvalContext(timestamp=paged_db.now, params=(75,))
        batches = list(stream_evaluate(prepared.plan(), reader, ctx))
        assert len(batches) == 75 // self.PARTITION_ROWS + 1  # pruned to 2
        rows = [row for batch in batches for row in batch.rows]
        assert sorted(rows) == [(i,) for i in range(75)]
        # The cursor path serves the same rows.
        cursor = paged_db.cursor()
        cursor.execute("SELECT id FROM big WHERE id < ?", (75,))
        assert sorted(cursor.fetchall()) == [(i,) for i in range(75)]

    def test_parameterized_bounds_prune_materialized_scans(self, paged_db):
        # The materialized path prunes on bind values too: a prepared
        # point-range query reads the same partitions as its literal twin.
        pruned_reads = []
        table = paged_db.catalog.versioned_table("big")
        original = table.relation_pruned

        def spying(version, bounds):
            pruned_reads.append(tuple(bounds))
            return original(version, bounds)

        table.relation_pruned = spying
        try:
            prepared = paged_db.prepare("SELECT id FROM big WHERE id < ?")
            assert len(prepared.query((75,)).rows) == 75
        finally:
            del table.relation_pruned
        assert pruned_reads == [(("cmp", 0, "<", 75),)]

    def test_stream_pins_snapshot_at_execute_time(self, paged_db):
        # Commits landing after execute() — even at the same wall clock —
        # must not leak into an already-open stream.
        cursor = paged_db.cursor()
        cursor.execute("SELECT id FROM big")
        paged_db.execute("INSERT INTO big VALUES (9999, 0)")
        assert len(cursor.fetchall()) == self.TOTAL_ROWS

    def test_union_all_streams_per_partition(self, paged_db,
                                             partition_counter):
        # UNION ALL concatenates branch streams: the cursor keeps
        # O(partition) memory and pulls only what the page needs.
        cursor = paged_db.cursor()
        cursor.execute("SELECT id FROM big WHERE val < 5 "
                       "UNION ALL SELECT id FROM big WHERE val >= 5")
        assert partition_counter["count"] == 0
        first = cursor.fetchmany(10)
        assert len(first) == 10
        assert partition_counter["count"] == 1
        assert len(cursor._buffer) <= self.PARTITION_ROWS
        rows = first + cursor.fetchall()
        assert len(rows) == self.TOTAL_ROWS
        # Identical rows, ids, and order to the materialized evaluation.
        expected = paged_db.query(
            "SELECT id FROM big WHERE val < 5 "
            "UNION ALL SELECT id FROM big WHERE val >= 5").rows
        assert rows == expected

    def test_union_all_stream_matches_materialized_row_ids(self, paged_db):
        from repro.engine.executor import evaluate, stream_evaluate
        from repro.engine.expressions import EvalContext

        prepared = paged_db.prepare(
            "SELECT id FROM big WHERE id < 60 "
            "UNION ALL SELECT id FROM big WHERE id >= 440")
        reader = paged_db.txns.reader(paged_db.now)
        ctx = EvalContext(timestamp=paged_db.now)
        streamed = [pair for batch in
                    stream_evaluate(prepared.plan(), reader, ctx)
                    for pair in batch.pairs()]
        materialized = list(evaluate(prepared.plan(), reader, ctx).pairs())
        assert streamed == materialized

    def test_fetch_time_errors_cross_the_boundary(self, paged_db):
        def poisoned_stream():
            yield Relation(schema_of(("id", SqlType.INT)), [(1,)], ["row:0"])
            raise KeyError("stream blew up mid-fetch")

        cursor = paged_db.cursor()
        cursor.execute("SELECT id FROM big")
        cursor.fetchmany(10)
        # Simulate an internal error surfacing from the lazy stream: it
        # must arrive wrapped, with the statement's SQL attached.
        cursor._batches = poisoned_stream()
        with pytest.raises(StatementError) as excinfo:
            cursor.fetchall()
        assert excinfo.value.sql == "SELECT id FROM big"
        assert isinstance(excinfo.value.__cause__, KeyError)

    def test_stream_matches_materialized_results(self, paged_db):
        sql = "SELECT id, val * 2 d FROM big WHERE val >= 5"
        cursor = paged_db.cursor()
        cursor.execute(sql)
        assert sorted(cursor.fetchall()) == sorted(paged_db.query(sql).rows)

    @pytest.mark.parametrize("sql, streams", [
        ("SELECT id, val * 2 d FROM big WHERE val >= 5", True),
        ("SELECT id FROM big WHERE id >= 120 LIMIT 70", True),
        ("SELECT id, val FROM big WHERE val > 2 ORDER BY val DESC, id "
         "LIMIT 7", True),
        ("SELECT id FROM big WHERE id < 60 "
         "UNION ALL SELECT val FROM big WHERE id >= 440", True),
        ("SELECT val, count(*) n FROM big GROUP BY val", False),
    ])
    def test_streamed_and_materialized_batches_are_one_type(self, paged_db,
                                                            sql, streams):
        # The cursor consumes one batch type whether the plan streamed
        # (one Relation per partition, through the executor's kernels) or
        # fell back to a single materialized Relation; rows, ids and
        # order are identical either way.
        from repro.engine.executor import evaluate, stream_evaluate

        session = paged_db.session()
        prepared = session.prepare(sql)
        reader, ctx = session._read_state(())
        assert (stream_evaluate(prepared.plan(), reader, ctx)
                is not None) == streams
        __, batches = session._stream_prepared(prepared, None)
        batches = list(batches)
        assert all(type(batch) is Relation for batch in batches)
        materialized = evaluate(prepared.plan(), reader, ctx)
        assert [pair for batch in batches for pair in batch.pairs()] == \
            list(materialized.pairs())


# ---------------------------------------------------------------------------
# Planned DML: UPDATE / DELETE run through the executor
# ---------------------------------------------------------------------------

class TestPlannedDml:
    @pytest.fixture
    def scans(self, paged_db, monkeypatch):
        """Rows handed over per pruned storage read of ``big`` and the
        number of zone-map consultations, while a statement runs."""
        from repro.storage.partition import Partition
        from repro.storage.table import VersionedTable

        seen = {"rows": [], "might_match": 0}
        original_pruned = VersionedTable.relation_pruned

        def relation_pruned(table, version, bounds):
            relation = original_pruned(table, version, bounds)
            if table.name == "big":
                seen["rows"].append(len(relation))
            return relation

        monkeypatch.setattr(VersionedTable, "relation_pruned",
                            relation_pruned)
        original_might_match = Partition.might_match

        def might_match(partition, bounds):
            seen["might_match"] += 1
            return original_might_match(partition, bounds)

        monkeypatch.setattr(Partition, "might_match", might_match)
        return seen

    @pytest.mark.parametrize("sql, binds", [
        ("DELETE FROM big WHERE id >= 120 AND id < 130", None),
        ("DELETE FROM big WHERE id >= ? AND id < ?", (120, 130)),
        ("UPDATE big SET val = val + 100 WHERE id >= 120 AND id < 130",
         None),
        ("UPDATE big SET val = val + ? WHERE id >= ? AND id < ?",
         (100, 120, 130)),
    ])
    def test_ranged_dml_prunes_partitions(self, paged_db, scans, sql, binds):
        cursor = paged_db.cursor()
        cursor.execute(sql, binds)
        assert cursor.rowcount == 10
        # Every partition's zone map was consulted, and only the one
        # partition covering the range was materialized.
        assert scans["might_match"] == TOTAL_ROWS // PARTITION_ROWS
        assert scans["rows"] == [PARTITION_ROWS]

    def test_duplicate_assignment_rejected_before_staging(self, db):
        versions = db.catalog.versioned_table("t").version_count
        with pytest.raises(UserError, match="'a' is assigned more than once"):
            db.execute("UPDATE t SET a = 5, a = 6 WHERE a = 1")
        assert db.catalog.versioned_table("t").version_count == versions
        session = db.session()
        session.begin()
        with pytest.raises(UserError, match="assigned more than once"):
            session.execute("UPDATE t SET b = 'p', a = 1, b = 'q'")
        session.rollback()
        assert sorted(db.query("SELECT * FROM t").rows) == \
            [(1, "x"), (2, "y"), (3, "z")]

    def test_unknown_set_column_is_a_bind_error(self, db):
        from repro.errors import BindError

        with pytest.raises(BindError, match="unknown column: nope"):
            db.execute("UPDATE t SET nope = 1")

    def test_where_type_error_is_located(self, db):
        for sql, column in (("DELETE FROM t WHERE a = 'x'", 21),
                            ("UPDATE t SET b = 'q' WHERE a = 'x'", 28)):
            with pytest.raises(UserError, match="cannot compare INT with "
                                                "TEXT") as excinfo:
                db.execute(sql)
            assert (excinfo.value.line, excinfo.value.column) == (1, column)

    def test_uncastable_assignment_stages_nothing(self, db):
        with pytest.raises(EvaluationError, match="cannot cast 'x' to INT"):
            db.execute("UPDATE t SET a = b")
        assert sorted(db.query("SELECT * FROM t").rows) == \
            [(1, "x"), (2, "y"), (3, "z")]


# ---------------------------------------------------------------------------
# Facade back-compat and error mapping
# ---------------------------------------------------------------------------

class TestFacade:
    def test_execute_delegates_to_default_session(self, db):
        past = db.now
        db.clock.advance(MINUTE)
        db.execute("INSERT INTO t VALUES (4, 'w')")
        db.default_session.set_as_of(past)
        try:
            assert len(db.query("SELECT * FROM t").rows) == 3
        finally:
            db.default_session.set_as_of(None)
        assert len(db.query("SELECT * FROM t").rows) == 4

    def test_query_requires_rows(self, db):
        with pytest.raises(UserError):
            db.query("CREATE TABLE q (a int)")

    def test_execute_script_still_works(self, db):
        results = db.execute_script(
            "CREATE TABLE s (a int); INSERT INTO s VALUES (7); "
            "SELECT a FROM s")
        assert results[-1].rows == [(7,)]

    def test_execute_script_rejects_bind_parameters(self, db):
        with pytest.raises(UserError, match="not.*allowed.*script"):
            db.execute_script("SELECT a FROM t WHERE a = :v")
        with pytest.raises(UserError, match="\\?1"):
            db.execute_script("SELECT a FROM t; SELECT a FROM t WHERE a = ?")


class TestErrorBoundary:
    def test_repro_errors_carry_offending_sql(self, db):
        with pytest.raises(UserError) as excinfo:
            db.execute("SELECT * FROM missing")
        assert excinfo.value.sql == "SELECT * FROM missing"

    def test_parse_errors_carry_offending_sql(self, db):
        with pytest.raises(UserError) as excinfo:
            db.execute("SELEC a")
        assert excinfo.value.sql == "SELEC a"

    def test_internal_exceptions_wrapped_as_statement_error(self, db,
                                                            monkeypatch):
        def boom(*args, **kwargs):
            raise KeyError("internal lookup blew up")

        monkeypatch.setattr(db.catalog, "versioned_table", boom)
        with pytest.raises(StatementError) as excinfo:
            db.execute("INSERT INTO t VALUES (9, 'k')")
        error = excinfo.value
        assert isinstance(error, UserError)
        assert error.sql == "INSERT INTO t VALUES (9, 'k')"
        assert "KeyError" in str(error)
        assert isinstance(error.__cause__, KeyError)

    def test_bind_errors_carry_offending_sql(self, db):
        statement = db.prepare("SELECT a FROM t WHERE a = ?")
        with pytest.raises(BindParameterError) as excinfo:
            statement.execute((1, 2))
        assert excinfo.value.sql == "SELECT a FROM t WHERE a = ?"
