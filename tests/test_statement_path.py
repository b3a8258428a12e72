"""One statement path: every entry point binds once and reads its bind
types and strict analysis off that one bound plan.

``execute``, ``query_at``, ``prepare().execute`` and ``cursor().execute``
take the same steps — bind, derive the slot types from that plan, check
the binds, analyze the plan under strict mode, run it — so the same
``(sql, binds)`` fails the same way on each of them, and a prepared
statement's bind types follow its plan across a re-bind instead of
accumulating.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import (AnalysisError, BindError, BindParameterError,
                          TypeError_, UserError)


def _db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (a int, b text)")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    return db


# ---------------------------------------------------------------------------
# Bind types follow the plan across DDL
# ---------------------------------------------------------------------------

def test_prepared_select_rebinds_its_slot_types_after_ddl():
    db = _db()
    select = db.prepare("SELECT b FROM t WHERE a = ?")
    assert select.execute((1,)).rows == [("x",)]
    db.execute("CREATE OR REPLACE TABLE t (a text, b text)")
    db.execute("INSERT INTO t VALUES ('k', 'v'), ('j', 'w')")
    assert select.execute(("k",)).rows == [("v",)]
    with pytest.raises(BindParameterError, match="should be TEXT"):
        select.execute((1,))


def test_prepared_delete_rebinds_its_slot_types_after_ddl():
    db = _db()
    delete = db.prepare("DELETE FROM t WHERE a = ?")
    delete.execute((3,))
    db.execute("CREATE OR REPLACE TABLE t (a text, b text)")
    db.execute("INSERT INTO t VALUES ('k', 'v'), ('j', 'w')")
    with pytest.raises(BindParameterError, match="should be TEXT"):
        delete.execute((1,))
    delete.execute(("k",))
    assert db.query("SELECT a, b FROM t").rows == [("j", "w")]


def test_slot_types_are_replaced_not_merged():
    # INT then FLOAT would unify to FLOAT if the types accumulated; the
    # re-bound plan alone says TEXT.
    db = _db()
    select = db.prepare("SELECT b FROM t WHERE a = :v")
    db.execute("CREATE OR REPLACE TABLE t (a float, b text)")
    db.execute("INSERT INTO t VALUES (1.5, 'f')")
    assert select.execute({"v": 1.5}).rows == [("f",)]
    db.execute("CREATE OR REPLACE TABLE t (a text, b text)")
    with pytest.raises(BindParameterError, match="should be TEXT"):
        select.execute({"v": 1.5})


# ---------------------------------------------------------------------------
# Every entry point: same (sql, binds), same error class
# ---------------------------------------------------------------------------

def _entry_points(session):
    wall = session.database.clock.now()
    return {
        "execute": lambda sql, binds: session.execute(sql, binds),
        "query_at": lambda sql, binds: session.query_at(sql, wall, binds),
        "prepare": lambda sql, binds: session.prepare(sql).execute(binds),
        "cursor": lambda sql, binds: session.cursor().execute(sql, binds),
    }


#: ``(sql, binds, the error every entry point raises)``.
FAILING = [
    # A wrongly typed bind: one-shot statements ran it and failed in the
    # engine (EvaluationError) instead of refusing the bind.
    ("SELECT a FROM t WHERE a > ?", ("x",), BindParameterError),
    ("SELECT a FROM t WHERE b = :v", {"v": 7}, BindParameterError),
    ("SELECT nope FROM t", None, BindError),
    ("SELECT a FROM t WHERE a = :v AND b = :v", {"v": 1}, TypeError_),
]


@pytest.mark.parametrize("sql, binds, error", FAILING)
def test_every_entry_point_raises_the_same_error(sql, binds, error):
    for name, run in _entry_points(_db().session()).items():
        with pytest.raises(UserError) as excinfo:
            run(sql, binds)
        assert type(excinfo.value) is error, name


@pytest.mark.parametrize("sql, binds", [
    ("DELETE FROM t WHERE a = ?", ("x",)),
    ("UPDATE t SET b = 'q' WHERE nope = 1", None),
])
def test_writes_fail_alike_on_execute_prepare_and_cursor(sql, binds):
    db = _db()
    session = db.session()
    raised = set()
    for run in (lambda: session.execute(sql, binds),
                lambda: session.prepare(sql).execute(binds),
                lambda: session.cursor().execute(sql, binds)):
        with pytest.raises(UserError) as excinfo:
            run()
        raised.add(type(excinfo.value))
    assert len(raised) == 1
    assert db.query("SELECT count(*) n FROM t").rows == [(3,)]


# ---------------------------------------------------------------------------
# Strict mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sql, binds, code", [
    ("SELECT nope FROM t", None, "RPR003"),
    ("SELECT a FROM t WHERE a = :v AND b = :v", {"v": 1}, "RPR004"),
    ("SELECT a FROM t WHERE a > 5 AND a < 3", None, "RPR011"),
])
def test_strict_mode_rejects_alike_on_every_entry_point(sql, binds, code):
    session = _db().session()
    session.set_analyze_level("error")
    for run in _entry_points(session).values():
        with pytest.raises(AnalysisError, match=code):
            run(sql, binds)
    report = session.analyze(sql)
    assert code in report.codes()


def test_strict_mode_rejects_a_prepared_statement_that_no_longer_binds():
    db = _db()
    session = db.session()
    session.set_analyze_level("error")
    select = session.prepare("SELECT b FROM t WHERE a = ?")
    db.execute("CREATE OR REPLACE TABLE t (c int)")
    with pytest.raises(AnalysisError, match="RPR003") as prepared:
        select.execute((1,))
    with pytest.raises(AnalysisError, match="RPR003") as one_shot:
        session.execute("SELECT b FROM t WHERE a = ?", (1,))
    assert prepared.value.diagnostics == one_shot.value.diagnostics
    session.set_analyze_level("warn")
    with pytest.raises(BindError):
        select.execute((1,))


def test_strict_mode_analyzes_executemany_once():
    session = _db().session()
    session.set_analyze_level("error")
    delete = session.prepare("DELETE FROM t WHERE a = ? AND a > 5 AND a < 3")
    with pytest.raises(AnalysisError, match="RPR011"):
        delete.executemany([(1,), (2,)])
    assert session.query("SELECT count(*) n FROM t").rows == [(3,)]
