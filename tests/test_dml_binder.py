"""One DML binder: analysis, ``prepare()`` and execution agree.

INSERT, UPDATE and DELETE are bound by one function,
:func:`repro.plan.builder.build_write`, which ``Session.analyze``,
``prepare()``, the plan cache and one-shot execution all call. These
tests pin what that buys:

* a regression table: for each DML statement, ``analyze`` reports an
  error exactly when ``prepare()`` raises, and a one-shot ``execute``
  raises the same error class;
* a prepared statement's bind types are known from ``prepare()`` on, so
  its first execution refuses a bind of the wrong type;
* a counted gate: after ``prepare()``, executing a prepared UPDATE,
  DELETE or INSERT ... SELECT binds and optimizes nothing, any DDL makes
  each bind exactly once more, and another session preparing the same
  text hits the plan cache;
* strict mode analyzes a prepared statement's cached plan instead of
  binding it again, and a strict one-shot statement binds once;
* slot types are derived once per bound plan: an execution that hits
  the plan cache walks nothing.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.analysis import Severity
from repro.analysis import analyzer as analyzer_mod
from repro.api import prepared as prepared_mod
from repro.api import session as session_mod
from repro.errors import (AnalysisError, BindError, BindParameterError,
                          TypeError_, UserError)
from repro.plan import builder as builder_mod


def _db(rows: bool = True) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (a int, b text)")
    db.execute("CREATE TABLE log (a int, b text)")
    if rows:
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    return db


# ---------------------------------------------------------------------------
# Regression table: analyze == prepare == execute
# ---------------------------------------------------------------------------

#: ``(statement, the error class prepare and execute raise, or None)``.
CASES = [
    ("INSERT INTO t VALUES (4, 'w')", None),
    ("INSERT INTO t (b, a) VALUES ('v', 5), ('u', 6)", None),
    ("INSERT INTO t SELECT a + 10, b FROM t WHERE a < 3", None),
    ("INSERT INTO t (a) SELECT a FROM log", None),
    ("UPDATE t SET b = 'q' WHERE a = 1", None),
    ("UPDATE t SET a = a + 1, b = b || '!'", None),
    ("DELETE FROM t WHERE a = 2", None),
    ("DELETE FROM t", None),
    # Each row below disagreed across the three before DML had one binder.
    ("UPDATE t SET a = 1, a = 2", UserError),
    ("INSERT INTO t VALUES (nope(1), 'x')", TypeError_),
    ("INSERT INTO t VALUES (1, 'x' + 1)", TypeError_),
    ("DELETE FROM t WHERE nope = 1", BindError),
    ("UPDATE t SET nope = 1", BindError),
    ("INSERT INTO t (a) SELECT 1, 2", UserError),
    # One-shot rows: a SELECT, and statements whose named parameter meets
    # conflicting type contexts (one-shot execute checked its binds before
    # binding, so it raised BindParameterError for the missing mapping).
    ("SELECT nope FROM t", BindError),
    ("SELECT b FROM t WHERE a = :x AND b = :x", TypeError_),
    ("DELETE FROM t WHERE a = :x OR b = :x", TypeError_),
    ("UPDATE t SET b = 'q' WHERE a < :x AND b > :x", TypeError_),
]


def _raised(action, sql):
    try:
        action(sql)
    except UserError as exc:
        return exc
    return None


@pytest.mark.parametrize("sql, error", CASES)
def test_analyze_prepare_and_execute_agree(sql, error):
    db = _db()
    session = db.session()
    report = session.analyze(sql)
    errors = [d for d in report.diagnostics if d.severity is Severity.ERROR]
    at_prepare = _raised(session.prepare, sql)
    at_execute = _raised(session.execute, sql)
    assert bool(errors) == (at_prepare is not None)
    assert type(at_execute) is type(at_prepare)
    if error is None:
        assert at_prepare is None
    else:
        assert type(at_prepare) is error
        assert len(errors) == 1
        assert errors[0].message in str(at_prepare)


def test_bad_statement_leaves_the_table_alone():
    db = _db()
    with pytest.raises(UserError):
        db.execute("UPDATE t SET a = 1, a = 2")
    assert db.query("SELECT a, b FROM t").rows == [
        (1, "x"), (2, "y"), (3, "z")]


@pytest.mark.parametrize("rows", [True, False])
def test_first_execute_of_a_prepared_delete_checks_bind_types(rows):
    db = _db(rows)
    delete = db.prepare("DELETE FROM t WHERE a = ?")
    for __ in range(2):
        with pytest.raises(BindParameterError, match="should be INT"):
            delete.execute(("x",))
    assert delete.execute((2,)) is None
    expected = [(1,), (3,)] if rows else []
    assert db.query("SELECT a FROM t").rows == expected


def test_prepared_writes_match_one_shot_writes():
    prepared, one_shot = _db(), _db()
    statements = [
        ("UPDATE t SET b = ? WHERE a = ?", ("u", 2)),
        ("INSERT INTO log SELECT a * ?, b FROM t WHERE a >= ?", (10, 2)),
        ("DELETE FROM t WHERE a = ?", (1,)),
        ("INSERT INTO t (b, a) VALUES (?, ?)", ("n", 9)),
    ]
    for sql, binds in statements:
        prepared.prepare(sql).execute(binds)
        one_shot.execute(sql, binds)
    for table in ("t", "log"):
        sql = f"SELECT a, b FROM {table} ORDER BY a"
        assert prepared.query(sql).rows == one_shot.query(sql).rows
    assert prepared.query("SELECT a, b FROM log ORDER BY a").rows == [
        (20, "u"), (30, "z")]


# ---------------------------------------------------------------------------
# Counted gate
# ---------------------------------------------------------------------------

#: A prepared DML statement and how to make its ``i``-th bind set.
WRITES = {
    "update": ("UPDATE t SET b = ? WHERE a = ?", lambda i: (f"v{i}", i)),
    "delete": ("DELETE FROM t WHERE a = ?", lambda i: (i + 1000,)),
    "insert_select": ("INSERT INTO log SELECT a, b FROM t WHERE a = ?",
                      lambda i: (i % 3 + 1,)),
}


@pytest.fixture
def counted(monkeypatch):
    """Counts of the binder's entry points and of ``optimize``, wherever a
    statement path reaches them."""
    calls = {"bind_expression": 0, "build_write": 0, "build_plan": 0,
             "optimize": 0}

    def counter(name, function):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapped

    for name, modules in (
            ("bind_expression", (builder_mod,)),
            ("build_write", (builder_mod, prepared_mod, session_mod,
                             analyzer_mod)),
            ("build_plan", (builder_mod, prepared_mod, session_mod,
                            analyzer_mod)),
            ("optimize", (builder_mod, prepared_mod, session_mod))):
        for module in modules:
            if hasattr(module, name):  # a module that imports it
                monkeypatch.setattr(module, name,
                                    counter(name, getattr(module, name)))
    return calls


@pytest.mark.perf
def test_prepared_writes_bind_once(counted):
    db = _db()
    counted.update(dict.fromkeys(counted, 0))
    statements = {kind: db.prepare(sql) for kind, (sql, __) in WRITES.items()}
    assert counted["build_write"] == 3 and counted["optimize"] == 3

    counted.update(dict.fromkeys(counted, 0))
    for kind, (__, binds_of) in WRITES.items():
        for i in range(10):
            statements[kind].execute(binds_of(i))
        statements[kind].executemany([binds_of(i) for i in range(100)])
    assert counted == dict.fromkeys(counted, 0)

    db.execute("CREATE TABLE other (x int)")  # any DDL moves the epoch
    for kind, (__, binds_of) in WRITES.items():
        statements[kind].execute(binds_of(0))
        statements[kind].executemany([binds_of(i) for i in range(100)])
    # UPDATE binds two expressions, DELETE one; INSERT ... SELECT builds
    # its query's plan.
    assert counted == {"bind_expression": 3, "build_write": 3,
                       "build_plan": 1, "optimize": 3}
    assert db.query("SELECT b FROM t WHERE a = 3").rows == [("v3",)]


@pytest.mark.perf
def test_second_session_hits_the_plan_cache_and_keeps_bind_types(counted):
    db = _db()
    sql = "DELETE FROM t WHERE a = ?"
    db.prepare(sql)
    hits = db.plan_cache.hits
    counted.update(dict.fromkeys(counted, 0))
    other = db.session().prepare(sql)
    assert db.plan_cache.hits == hits + 1
    assert counted == dict.fromkeys(counted, 0)
    with pytest.raises(BindParameterError, match="should be INT"):
        other.execute(("x",))
    other.execute((1,))
    assert db.query("SELECT a FROM t").rows == [(2,), (3,)]


@pytest.fixture
def derived(monkeypatch):
    """Counts of slot-type derivations (walks of a bound plan)."""
    calls = {"derivations": 0}
    derive = prepared_mod._parameter_types

    def wrapped(plan):
        calls["derivations"] += 1
        return derive(plan)

    monkeypatch.setattr(prepared_mod, "_parameter_types", wrapped)
    return calls


@pytest.mark.perf
@pytest.mark.parametrize("sql, binder", [
    ("SELECT b FROM t WHERE a = 1", "build_plan"),
    ("UPDATE t SET b = 'y' WHERE a = 1", "build_write"),
    ("DELETE FROM t WHERE a = 1", "build_write"),
])
def test_strict_one_shot_statement_binds_once(counted, derived, sql, binder):
    session = _db().session()
    session.set_analyze_level("error")
    counted.update(dict.fromkeys(counted, 0))
    session.execute(sql)
    assert counted["build_plan"] + counted["build_write"] == 1
    assert counted[binder] == 1
    assert derived["derivations"] == 0  # no bind slots, nothing derived


#: A prepared SELECT and UPDATE and how to make their ``i``-th bind set.
READS_AND_WRITES = {
    "build_plan": ("SELECT b FROM t WHERE a = ?", lambda i: (i % 3 + 1,)),
    "build_write": ("UPDATE t SET b = ? WHERE a = ?",
                    lambda i: (f"v{i}", i % 3 + 1)),
}


@pytest.mark.perf
@pytest.mark.parametrize("binder", sorted(READS_AND_WRITES))
def test_prepared_execute_binds_and_derives_nothing(counted, derived,
                                                    binder):
    db = _db()
    sql, binds_of = READS_AND_WRITES[binder]
    statement = db.prepare(sql)
    counted.update(dict.fromkeys(counted, 0))
    derived["derivations"] = 0
    for i in range(10):
        statement.execute(binds_of(i))
    statement.executemany([binds_of(i) for i in range(100)])
    assert counted["build_plan"] + counted["build_write"] == 0
    assert derived["derivations"] == 0

    db.execute("CREATE TABLE other (x int)")  # any DDL moves the epoch
    for i in range(10):
        statement.execute(binds_of(i))
    statement.executemany([binds_of(i) for i in range(100)])
    assert counted["build_plan"] + counted["build_write"] == 1
    assert counted[binder] == 1
    assert derived["derivations"] == 1


# ---------------------------------------------------------------------------
# Strict mode over a prepared statement's cached plan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sql", [
    "SELECT a FROM t WHERE a > 5 AND a < 3",
    "DELETE FROM t WHERE a > 5 AND a < 3",
])
def test_strict_mode_analyzes_the_cached_plan(counted, sql):
    db = _db()
    session = db.session()
    session.set_analyze_level("error")
    statement = session.prepare(sql)
    counted.update(dict.fromkeys(counted, 0))
    for __ in range(3):
        with pytest.raises(AnalysisError, match="RPR011"):
            statement.execute()
    assert counted == dict.fromkeys(counted, 0)
    assert db.query("SELECT count(*) n FROM t").rows == [(3,)]


def test_strict_mode_rejects_a_bad_one_shot_statement_by_analysis():
    session = _db().session()
    session.set_analyze_level("error")
    with pytest.raises(AnalysisError, match="RPR003"):
        session.execute("UPDATE t SET nope = 1")
    with pytest.raises(AnalysisError, match="RPR011"):
        session.execute("DELETE FROM t WHERE a > 5 AND a < 3")
