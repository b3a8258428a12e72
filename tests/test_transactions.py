"""Transaction semantics: the session-level BEGIN/COMMIT/ROLLBACK surface.

Covers the contract promised by the API redesign:

* read-your-writes — reads inside a transaction see its snapshot plus
  its own staged inserts/updates/deletes;
* isolation — nothing is visible to other sessions until COMMIT, and
  ROLLBACK leaves no trace;
* poisoning — an execution error mid-transaction blocks every statement
  until ROLLBACK (or ROLLBACK TO a savepoint);
* savepoints — checkpoint/restore of the staged-write state;
* AS-OF reads inside an open transaction stay historical;
* first-committer-wins conflicts between sessions;
* DB-API autocommit semantics on sessions and cursors.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import (BindParameterError, EvaluationError, LockConflict,
                          TransactionError, UserError)
from repro.util.timeutil import MINUTE, SECOND


@pytest.fixture
def db():
    database = Database()
    database.create_warehouse("wh")
    database.execute("CREATE TABLE t (a int, b text)")
    database.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    return database


# ---------------------------------------------------------------------------
# Read-your-writes
# ---------------------------------------------------------------------------

class TestReadYourWrites:
    def test_insert_visible_inside_transaction(self, db):
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (4, 'w')")
        assert sorted(session.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,), (4,)]
        session.commit()

    def test_update_and_delete_visible_inside_transaction(self, db):
        session = db.session()
        session.begin()
        session.execute("UPDATE t SET b = 'X' WHERE a = 1")
        session.execute("DELETE FROM t WHERE a = 2")
        assert sorted(session.query("SELECT a, b FROM t").rows) == \
            [(1, "X"), (3, "z")]
        session.commit()
        assert sorted(db.query("SELECT a, b FROM t").rows) == \
            [(1, "X"), (3, "z")]

    def test_dml_sees_earlier_statements(self, db):
        # UPDATE matches a row INSERTed earlier in the same transaction.
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (4, 'w')")
        assert session.execute("UPDATE t SET b = 'W' WHERE a = 4") is None
        session.execute("DELETE FROM t WHERE a = 1")
        session.commit()
        assert sorted(db.query("SELECT a, b FROM t").rows) == \
            [(2, "y"), (3, "z"), (4, "W")]

    def test_delete_of_own_insert_unstages_it(self, db):
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (4, 'w'), (5, 'v')")
        session.execute("DELETE FROM t WHERE a = 4")
        assert sorted(session.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,), (5,)]
        session.commit()
        assert sorted(db.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,), (5,)]

    def test_update_then_delete_same_row(self, db):
        session = db.session()
        session.begin()
        session.execute("UPDATE t SET b = 'X' WHERE a = 1")
        session.execute("DELETE FROM t WHERE a = 1")
        session.commit()
        assert sorted(db.query("SELECT a FROM t").rows) == [(2,), (3,)]

    def test_cursor_streams_overlay_inside_transaction(self, db):
        # The cursor's streamed rows match scan() exactly: base rows with
        # deletes/updates applied, then the staged inserts.
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (4, 'w')")
        session.execute("UPDATE t SET b = 'X' WHERE a = 1")
        session.execute("DELETE FROM t WHERE a = 2")
        cursor = session.cursor()
        cursor.execute("SELECT a, b FROM t")
        assert cursor.fetchall() == [(1, "X"), (3, "z"), (4, "w")]
        # ... and a concurrent statement staging more writes does not
        # leak into an already-open stream.
        cursor.execute("SELECT a FROM t")
        session.execute("DELETE FROM t WHERE a = 3")
        assert sorted(cursor.fetchall()) == [(1,), (3,), (4,)]
        session.rollback()

    def test_bulk_delete_of_own_inserts(self, db):
        # Deleting many provisional rows at once unstages them wholesale.
        session = db.session()
        session.begin()
        loader = session.prepare("INSERT INTO t VALUES (?, ?)")
        loader.executemany([(100 + i, "bulk") for i in range(500)])
        assert session.execute("DELETE FROM t WHERE b = ?",
                               ("bulk",)) is None
        assert session.query("SELECT count(*) c FROM t").rows == [(3,)]
        session.commit()
        assert db.query("SELECT count(*) c FROM t").rows == [(3,)]

    def test_insert_select_reads_staged_rows(self, db):
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (10, 'n')")
        session.execute(
            "INSERT INTO t SELECT a + 100, b FROM t WHERE a >= 10")
        assert sorted(session.query(
            "SELECT a FROM t WHERE a >= 10").rows) == [(10,), (110,)]
        session.commit()


# ---------------------------------------------------------------------------
# Isolation and rollback
# ---------------------------------------------------------------------------

class TestIsolation:
    def test_invisible_to_other_sessions_until_commit(self, db):
        writer, reader = db.session(), db.session()
        writer.begin()
        writer.execute("INSERT INTO t VALUES (4, 'w')")
        writer.execute("DELETE FROM t WHERE a = 1")
        assert sorted(reader.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,)]
        writer.commit()
        assert sorted(reader.query("SELECT a FROM t").rows) == \
            [(2,), (3,), (4,)]

    def test_rollback_leaves_no_trace(self, db):
        table = db.catalog.versioned_table("t")
        versions_before = table.version_count
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (4, 'w')")
        session.execute("UPDATE t SET b = 'gone'")
        session.execute("DELETE FROM t WHERE a = 1")
        session.rollback()
        assert sorted(db.query("SELECT a, b FROM t").rows) == \
            [(1, "x"), (2, "y"), (3, "z")]
        assert table.version_count == versions_before  # no new version
        assert not session.in_transaction

    def test_commit_is_one_version(self, db):
        table = db.catalog.versioned_table("t")
        versions_before = table.version_count
        session = db.session()
        with session.transaction():
            session.execute("INSERT INTO t VALUES (4, 'w')")
            session.execute("INSERT INTO t VALUES (5, 'v')")
            session.execute("DELETE FROM t WHERE a = 1")
        assert table.version_count == versions_before + 1

    def test_transaction_context_manager_rolls_back_on_error(self, db):
        session = db.session()
        with pytest.raises(EvaluationError):
            with session.transaction():
                session.execute("INSERT INTO t VALUES (4, 'w')")
                session.execute("SELECT 1/0 FROM t")
        assert not session.in_transaction
        assert sorted(db.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,)]

    def test_snapshot_ignores_later_commits(self, db):
        reader, writer = db.session(), db.session()
        reader.begin()
        assert sorted(reader.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,)]
        writer.execute("INSERT INTO t VALUES (4, 'w')")
        # Same simulated instant — the HLC snapshot still excludes it.
        assert sorted(reader.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,)]
        reader.commit()
        assert sorted(reader.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,), (4,)]

    def test_blind_appends_do_not_conflict(self, db):
        # Insert-only transactions cannot lose anyone's update, so two
        # sessions appending to one table both commit.
        first, second = db.session(), db.session()
        first.begin()
        first.execute("INSERT INTO t VALUES (4, 'w')")
        second.execute("INSERT INTO t VALUES (5, 'v')")  # autocommit
        first.commit()
        assert sorted(db.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,), (4,), (5,)]

    def test_first_committer_wins(self, db):
        first, second = db.session(), db.session()
        first.begin()
        first.execute("UPDATE t SET b = 'first' WHERE a = 1")
        second.begin()
        second.execute("UPDATE t SET b = 'second' WHERE a = 1")
        second.commit()
        with pytest.raises(LockConflict, match="write-write conflict"):
            first.commit()
        # The failed commit auto-rolled-back: session immediately usable.
        assert not first.in_transaction
        assert db.query("SELECT b FROM t WHERE a = 1").rows == [("second",)]
        first.execute("UPDATE t SET b = 'retried' WHERE a = 1")
        assert db.query("SELECT b FROM t WHERE a = 1").rows == [("retried",)]


# ---------------------------------------------------------------------------
# Poisoning
# ---------------------------------------------------------------------------

class TestPoisonedTransaction:
    def test_error_poisons_until_rollback(self, db):
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (4, 'w')")
        with pytest.raises(EvaluationError):
            session.execute("SELECT 1/0 FROM t")
        with pytest.raises(TransactionError, match="aborted"):
            session.query("SELECT a FROM t")
        with pytest.raises(TransactionError, match="cannot COMMIT"):
            session.commit()
        session.rollback()
        # Fully recovered, and the staged insert is gone.
        assert sorted(session.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,)]

    def test_sql_rollback_clears_poison(self, db):
        session = db.session()
        session.execute("BEGIN")
        with pytest.raises(EvaluationError):
            session.execute("SELECT 1/0 FROM t")
        session.execute("ROLLBACK")
        assert session.query("SELECT count(*) c FROM t").rows == [(3,)]

    def test_rollback_to_savepoint_unpoisons(self, db):
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (4, 'w')")
        session.savepoint("sp")
        with pytest.raises(EvaluationError):
            session.execute("SELECT 1/0 FROM t")
        session.rollback_to("sp")
        # Transaction is alive again, earlier work intact.
        assert sorted(session.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,), (4,)]
        session.commit()
        assert sorted(db.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,), (4,)]

    def test_fetch_time_error_poisons(self, db):
        # Cursors stream inside transactions too, so a lazy evaluation
        # error surfaces at fetch time — and still poisons.
        session = db.session()
        cursor = session.cursor()
        session.begin()
        cursor.execute("SELECT 1 / (a - 2) FROM t")
        with pytest.raises(EvaluationError):
            cursor.fetchall()
        with pytest.raises(TransactionError, match="aborted"):
            session.query("SELECT a FROM t")
        session.rollback()

    def test_bad_bind_does_not_poison(self, db):
        # Bind validation fails before the statement reaches the engine;
        # the transaction stays healthy (same contract on every entry
        # point: execute, prepared execution, cursor execute).
        session = db.session()
        session.begin()
        prepared = session.prepare("SELECT a FROM t WHERE a > ?")
        with pytest.raises(BindParameterError):
            prepared.execute((object(),))
        with pytest.raises(BindParameterError):
            session.cursor().execute("SELECT a FROM t WHERE a > ?",
                                     (object(),))
        # One-shot statements: a wrongly typed bind is refused against the
        # bound plan's slot types, and a statement that does not bind
        # fails while binding — both before the engine runs anything.
        with pytest.raises(BindParameterError, match="should be INT"):
            session.execute("SELECT a FROM t WHERE a > ?", ("x",))
        with pytest.raises(BindParameterError, match="should be INT"):
            session.execute("DELETE FROM t WHERE a = ?", ("x",))
        with pytest.raises(UserError, match="unknown column"):
            session.execute("SELECT nope FROM t")
        with pytest.raises(UserError, match="conflicting type contexts"):
            session.execute("SELECT a FROM t WHERE a = :v AND b = :v",
                            {"v": 1})
        assert session.query("SELECT count(*) c FROM t").rows == [(3,)]
        session.commit()


# ---------------------------------------------------------------------------
# Savepoints
# ---------------------------------------------------------------------------

class TestSavepoints:
    def test_savepoint_restores_staged_state(self, db):
        session = db.session()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (4, 'w')")
        session.execute("SAVEPOINT before_mess")
        session.execute("DELETE FROM t")
        assert session.query("SELECT count(*) c FROM t").rows == [(0,)]
        session.execute("ROLLBACK TO before_mess")
        assert sorted(session.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,), (4,)]
        session.execute("COMMIT")
        assert sorted(db.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,), (4,)]

    def test_rollback_to_discards_later_savepoints(self, db):
        session = db.session()
        session.begin()
        session.savepoint("a")
        session.execute("INSERT INTO t VALUES (4, 'w')")
        session.savepoint("b")
        session.execute("INSERT INTO t VALUES (5, 'v')")
        session.rollback_to("a")
        with pytest.raises(TransactionError, match="no such savepoint"):
            session.rollback_to("b")
        # "a" itself survives and can be restored again.
        session.execute("INSERT INTO t VALUES (6, 'u')")
        session.rollback_to("a")
        session.commit()
        assert sorted(db.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,)]

    def test_savepoint_requires_transaction(self, db):
        session = db.session()
        with pytest.raises(TransactionError, match="SAVEPOINT requires"):
            session.savepoint("sp")
        with pytest.raises(TransactionError, match="ROLLBACK TO requires"):
            session.rollback_to("sp")

    def test_rollback_to_savepoint_sql_with_keyword(self, db):
        session = db.session()
        session.execute("BEGIN TRANSACTION")
        session.execute("SAVEPOINT sp")
        session.execute("DELETE FROM t")
        session.execute("ROLLBACK TO SAVEPOINT sp")
        assert session.query("SELECT count(*) c FROM t").rows == [(3,)]
        session.execute("ROLLBACK WORK")
        assert not session.in_transaction

    def test_transaction_and_work_stay_valid_identifiers(self, db):
        # The BEGIN/COMMIT noise words are matched contextually, not
        # reserved: schemas using them as names keep parsing.
        db.execute("CREATE TABLE work (transaction int)")
        db.execute("INSERT INTO work VALUES (1)")
        assert db.query("SELECT transaction FROM work").rows == [(1,)]


# ---------------------------------------------------------------------------
# AS-OF reads inside a transaction
# ---------------------------------------------------------------------------

class TestAsOfInsideTransaction:
    def test_as_of_reads_are_historical(self, db):
        before = db.now
        db.clock.advance(MINUTE)
        db.execute("INSERT INTO t VALUES (4, 'w')")
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (5, 'v')")
        # In-transaction read: snapshot + staged writes.
        assert sorted(session.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,), (4,), (5,)]
        # AS-OF session state bypasses the transaction entirely.
        with session.as_of(before):
            assert sorted(session.query("SELECT a FROM t").rows) == \
                [(1,), (2,), (3,)]
        # query_at does too.
        assert sorted(session.query_at("SELECT a FROM t", before).rows) == \
            [(1,), (2,), (3,)]
        session.commit()

    def test_dynamic_table_readable_inside_transaction(self, db):
        db.execute("""
            CREATE DYNAMIC TABLE totals TARGET_LAG = '1 minute'
            WAREHOUSE = wh AS SELECT count(*) c FROM t
        """)
        session = db.session()
        session.begin()
        assert session.query("SELECT c FROM totals").rows == [(3,)]
        session.commit()


# ---------------------------------------------------------------------------
# Autocommit / DB-API surface
# ---------------------------------------------------------------------------

class TestAutocommit:
    def test_begin_twice_rejected(self, db):
        session = db.session()
        session.begin()
        with pytest.raises(TransactionError, match="already in progress"):
            session.begin()
        with pytest.raises(TransactionError, match="already in progress"):
            session.execute("BEGIN")
        session.rollback()

    def test_commit_and_rollback_without_transaction_are_noops(self, db):
        session = db.session()
        session.commit()
        session.rollback()
        cursor = session.cursor()
        cursor.commit()
        cursor.rollback()

    def test_autocommit_off_opens_implicit_transaction(self, db):
        session, other = db.session(), db.session()
        session.autocommit = False
        session.execute("INSERT INTO t VALUES (4, 'w')")
        assert session.in_transaction
        assert sorted(other.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,)]
        session.commit()
        assert sorted(other.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,), (4,)]
        # The next statement opens a fresh implicit transaction.
        session.execute("DELETE FROM t WHERE a = 4")
        assert session.in_transaction
        session.rollback()
        assert sorted(other.query("SELECT a FROM t").rows) == \
            [(1,), (2,), (3,), (4,)]

    def test_cursor_autocommit_and_commit(self, db):
        cursor = db.session().cursor()
        assert cursor.autocommit is True
        cursor.autocommit = False
        cursor.execute("INSERT INTO t VALUES (4, 'w')")
        assert db.query("SELECT count(*) c FROM t").rows == [(3,)]
        cursor.commit()
        assert db.query("SELECT count(*) c FROM t").rows == [(4,)]

    def test_enabling_autocommit_with_open_transaction_rejected(self, db):
        session = db.session()
        session.autocommit = False
        session.execute("INSERT INTO t VALUES (4, 'w')")
        with pytest.raises(TransactionError, match="cannot enable"):
            session.autocommit = True
        session.rollback()
        session.autocommit = True

    def test_execute_script_with_transaction_brackets(self, db):
        session = db.session()
        session.execute_script("""
            BEGIN;
            INSERT INTO t VALUES (4, 'w');
            UPDATE t SET b = 'W' WHERE a = 4;
            COMMIT;
        """)
        assert db.query("SELECT b FROM t WHERE a = 4").rows == [("W",)]

    def test_cursor_drives_transactions_textually(self, db):
        cursor = db.session().cursor()
        cursor.execute("BEGIN")
        cursor.execute("INSERT INTO t VALUES (4, 'w')")
        cursor.execute("ROLLBACK")
        assert db.query("SELECT count(*) c FROM t").rows == [(3,)]


# ---------------------------------------------------------------------------
# executemany atomicity (regression: mid-batch error must not half-commit)
# ---------------------------------------------------------------------------

class TestExecutemanyAtomicity:
    def test_mid_batch_bind_error_rolls_back_insert(self, db):
        table = db.catalog.versioned_table("t")
        versions_before = table.version_count
        cursor = db.cursor()
        with pytest.raises(BindParameterError):
            cursor.executemany(
                "INSERT INTO t VALUES (?, ?)",
                [(10, "a"), (11,), (12, "c")])  # arity error mid-batch
        assert table.version_count == versions_before
        assert db.query("SELECT count(*) c FROM t").rows == [(3,)]

    def test_mid_batch_error_rolls_back_non_insert(self, db):
        # The generic executemany path (UPDATE per bind set) is also one
        # transaction: an error on the second bind set undoes the first.
        table = db.catalog.versioned_table("t")
        versions_before = table.version_count
        cursor = db.cursor()
        with pytest.raises(BindParameterError):
            cursor.executemany(
                "UPDATE t SET b = ? WHERE a = ?",
                [("X", 1), ("Y", "not-an-int")])
        assert table.version_count == versions_before
        assert db.query("SELECT b FROM t WHERE a = 1").rows == [("x",)]

    def test_executemany_inside_transaction_stages_only(self, db):
        session = db.session()
        session.begin()
        loader = session.prepare("INSERT INTO t VALUES (?, ?)")
        assert loader.executemany([(10, "a"), (11, "b")]) == 2
        assert db.query("SELECT count(*) c FROM t").rows == [(3,)]
        session.rollback()
        assert db.query("SELECT count(*) c FROM t").rows == [(3,)]


# ---------------------------------------------------------------------------
# Interaction with dynamic tables and streams
# ---------------------------------------------------------------------------

class TestTransactionsAndRefresh:
    def test_committed_transaction_feeds_refresh(self, db):
        db.execute("""
            CREATE DYNAMIC TABLE totals TARGET_LAG = '1 minute'
            WAREHOUSE = wh AS SELECT count(*) c FROM t
        """)
        session = db.session()
        with session.transaction():
            session.execute("INSERT INTO t VALUES (4, 'w')")
            session.execute("INSERT INTO t VALUES (5, 'v')")
        db.refresh_dynamic_table("totals")
        assert db.query("SELECT c FROM totals").rows == [(5,)]
        assert db.check_dvs("totals")

    def test_rolled_back_transaction_never_reaches_refresh(self, db):
        db.execute("""
            CREATE DYNAMIC TABLE totals TARGET_LAG = '1 minute'
            WAREHOUSE = wh AS SELECT count(*) c FROM t
        """)
        session = db.session()
        session.begin()
        session.execute("DELETE FROM t")
        session.rollback()
        db.clock.advance(SECOND)
        db.refresh_dynamic_table("totals")
        assert db.query("SELECT c FROM totals").rows == [(3,)]
