"""INSERT, column at a time: the rows stored equal a per-value oracle.

Every INSERT transposes its bind sets once into slot columns, checks each
slot and casts each table column with one type dispatch, and stages the
resulting column block. These tests pin that path to the row-at-a-time
semantics it replaced:

* a property: random statements and bind sets store the same rows, in
  the same order, as an oracle that evaluates each VALUES cell per bind
  set and casts it with ``cast_value``, value by value;
* errors stay exact and name their bind set and slot, and a failed
  batch leaves the table's version count alone;
* inside an open transaction the staged block reads back, and DELETE,
  UPDATE and ROLLBACK TO work on it;
* the INSERT column list is validated;
* a counted gate: a prepared INSERT binds its VALUES once, re-binds only
  after DDL, and stages one block per batch.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.plan import builder as builder_mod
from repro.engine.types import SqlType, cast_value
from repro.errors import (BindError, BindParameterError, EvaluationError,
                          UserError)
from repro.txn.manager import Transaction

BIG = 2 ** 53
#: (column name, SQL type, DDL name) of the property's table.
COLUMNS = (("i", SqlType.INT, "int"), ("f", SqlType.FLOAT, "float"),
           ("s", SqlType.TEXT, "text"), ("b", SqlType.BOOL, "bool"),
           ("ts", SqlType.TIMESTAMP, "timestamp"),
           ("v", SqlType.VARIANT, "variant"))
TYPE_OF = {name: sql_type for name, sql_type, __ in COLUMNS}

_ints = st.one_of(st.integers(-10, 10),
                  st.sampled_from([BIG - 1, BIG, BIG + 1, -BIG - 1,
                                   2 ** 63 - 1]))
_floats = st.one_of(st.floats(-1e6, 1e6),
                    st.sampled_from([math.nan, -0.0, 0.0, math.inf]))
#: Values each column type casts without error: bool into INT, float
#: into INT, int into FLOAT, str into VARIANT (JSON or not), NaN, ints
#: beyond 2**53.
VALUES_FOR = {
    SqlType.INT: st.one_of(st.none(), _ints, st.booleans(),
                           st.floats(-1e6, 1e6)),
    SqlType.FLOAT: st.one_of(st.none(), _floats, _ints, st.booleans()),
    SqlType.TEXT: st.one_of(st.none(), st.text(max_size=4), _ints,
                            st.booleans()),
    SqlType.BOOL: st.one_of(st.none(), st.booleans(), _ints),
    SqlType.TIMESTAMP: st.one_of(st.none(), _ints),
    SqlType.VARIANT: st.one_of(
        st.none(), _ints, _floats, st.booleans(),
        st.sampled_from(['{"k": 1}', "[1, 2]", "12", "plain", ""]),
        st.dictionaries(st.sampled_from("ab"), _ints, max_size=2),
        st.lists(_ints, max_size=2)),
}
#: A literal per column type: its SQL text and its Python value.
LITERALS = {SqlType.INT: ("7", 7), SqlType.FLOAT: ("2.5", 2.5),
            SqlType.TEXT: ("'lit'", "lit"), SqlType.BOOL: ("true", True),
            SqlType.TIMESTAMP: ("12", 12),
            SqlType.VARIANT: ("'[1, 2]'", "[1, 2]")}


def _db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t ("
               + ", ".join(f"{name} {ddl}" for name, __, ddl in COLUMNS)
               + ")")
    return db


def _canon(rows):
    """Rows compared by value *and* Python type, so a bool stored into
    INT (1 vs True), -0.0 and NaN all count."""
    return [tuple((type(value).__name__, repr(value)) for value in row)
            for row in rows]


@st.composite
def statements(draw):
    """``(sql, bind sets, expected rows)`` for one random INSERT."""
    names = [name for name, __, __ in COLUMNS]
    targets = draw(st.permutations(names))
    explicit = draw(st.booleans())
    if explicit:
        targets = targets[:draw(st.integers(1, len(targets)))]
    else:
        targets = names
    named = draw(st.booleans())
    # Each VALUES row: per target, a bare parameter, a literal or an
    # expression over a parameter.
    rows = draw(st.lists(
        st.lists(st.sampled_from(("param", "param", "literal", "expr")),
                 min_size=len(targets), max_size=len(targets)),
        min_size=1, max_size=3))
    slots: list[SqlType] = []  # the target type each slot feeds
    texts = []
    for row in rows:
        cells = []
        for kind, target in zip(row, targets):
            literal = LITERALS[TYPE_OF[target]][0]
            if kind == "literal":
                cells.append(literal)
                continue
            marker = f":p{len(slots)}" if named else "?"
            slots.append(TYPE_OF[target])
            cells.append(marker if kind == "param"
                         else f"coalesce({marker}, {literal})")
        texts.append("(" + ", ".join(cells) + ")")
    column_list = f" ({', '.join(targets)})" if explicit else ""
    sql = f"INSERT INTO t{column_list} VALUES {', '.join(texts)}"

    bind_sets = draw(st.lists(
        st.tuples(*(VALUES_FOR[sql_type] for sql_type in slots)),
        min_size=1, max_size=12))
    expected = []
    for binds in bind_sets:
        values = iter(binds)
        for row in rows:
            by_target = {}
            for kind, target in zip(row, targets):
                literal = LITERALS[TYPE_OF[target]][1]
                if kind == "literal":
                    value = literal
                else:
                    value = next(values)
                    if kind == "expr" and value is None:
                        value = literal
                by_target[target] = cast_value(value, TYPE_OF[target])
            expected.append(tuple(by_target.get(name) for name in names))
    if named:
        bind_sets = [{f"p{slot}": value for slot, value in enumerate(binds)}
                     for binds in bind_sets]
    return sql, bind_sets, expected


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=statements(), batched=st.booleans())
def test_bind_sets_store_what_the_per_value_oracle_casts(case, batched):
    sql, bind_sets, expected = case
    db = _db()
    prepared = db.prepare(sql)
    if batched:
        assert prepared.executemany(bind_sets) == len(expected)
    else:
        for binds in bind_sets:
            prepared.execute(binds)
    assert _canon(db.query("SELECT * FROM t").rows) == _canon(expected)


def test_insert_select_casts_whole_columns():
    db = _db()
    db.execute("CREATE TABLE src (x int, y text)")
    db.execute("INSERT INTO src VALUES (1, '{\"k\": 2}'), (2, NULL)")
    db.execute("INSERT INTO t (f, v) SELECT x, y FROM src")
    assert _canon(db.query("SELECT f, v, i FROM t").rows) == _canon(
        [(1.0, {"k": 2}, None), (2.0, None, None)])


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

@pytest.fixture
def two():
    db = Database()
    db.execute("CREATE TABLE t (a int, b float, c text)")
    db.execute("INSERT INTO t VALUES (0, 0.0, 'seed')")
    return db


class TestErrors:
    def _versions(self, db):
        return db.catalog.versioned_table("t").version_count

    def test_bad_cast_names_bind_set_and_slot(self, two):
        before = self._versions(two)
        insert = two.prepare("INSERT INTO t VALUES (?, ?, ?)")
        with pytest.raises(EvaluationError,
                           match=r"bind set 2, \?2: cannot cast 'zz' to"):
            insert.executemany([(1, 1.0, "a"), (2, 2.0, "b"),
                                (3, "zz", "c"), (4, "also bad", "d")])
        assert self._versions(two) == before
        assert two.query("SELECT count(*) n FROM t").rows == [(1,)]

    def test_bad_cast_in_a_multi_row_values_list(self, two):
        before = self._versions(two)
        insert = two.prepare("INSERT INTO t VALUES (?, 1.0, 'x'), (?, ?, 'y')")
        with pytest.raises(EvaluationError, match=r"bind set 1, \?3"):
            insert.executemany([(1, 2, 3.0), (4, 5, "nope")])
        assert self._versions(two) == before

    def test_value_without_sql_type_names_bind_set_and_slot(self, two):
        before = self._versions(two)
        insert = two.prepare("INSERT INTO t VALUES (?, ?, ?)")
        with pytest.raises(BindParameterError,
                           match=r"bind set 1: bind value for \?3 has no "
                                 r"SQL type"):
            insert.executemany([(1, 1.0, "a"), (2, 2.0, object())])
        assert self._versions(two) == before

    def test_wrong_arity_names_bind_set(self, two):
        insert = two.prepare("INSERT INTO t VALUES (?, ?, ?)")
        with pytest.raises(BindParameterError,
                           match="bind set 1: statement takes 3 positional "
                                 "parameters, got 2 values"):
            insert.executemany([(1, 1.0, "a"), (2, 2.0)])

    def test_named_binds_missing_a_name(self, two):
        before = self._versions(two)
        insert = two.prepare("INSERT INTO t VALUES (:a, :b, :c)")
        with pytest.raises(BindParameterError,
                           match="bind set 1: missing bind values for :c"):
            insert.executemany([{"a": 1, "b": 1.0, "c": "x"},
                                {"a": 2, "b": 2.0}])
        assert self._versions(two) == before

    def test_context_typed_slot_rejects_a_mistyped_column(self, two):
        insert = two.prepare("INSERT INTO t VALUES (? + 1, 0.5, 'x')")
        with pytest.raises(BindParameterError,
                           match=r"bind set 1: bind value for \?1 should "
                                 r"be INT"):
            insert.executemany([(1,), ("text",)])

    def test_single_execute_keeps_the_plain_message(self, two):
        with pytest.raises(EvaluationError, match="^cannot cast 'zz'"):
            two.execute("INSERT INTO t VALUES (?, ?, ?)", (1, "zz", "a"))


class TestColumnList:
    """``INSERT INTO t (a, nope)`` used to drop ``nope``'s value and
    ``INSERT INTO t (a, a)`` to keep the last one, both silently."""

    @pytest.mark.parametrize("prepared", [False, True])
    def test_unknown_column_raises(self, two, prepared):
        sql = "INSERT INTO t (a, nope) VALUES (1, 2)"
        with pytest.raises(BindError, match="unknown column: nope"):
            two.prepare(sql).execute() if prepared else two.execute(sql)
        assert two.query("SELECT count(*) n FROM t").rows == [(1,)]

    @pytest.mark.parametrize("prepared", [False, True])
    def test_repeated_column_raises(self, two, prepared):
        sql = "INSERT INTO t (a, a) VALUES (1, 2)"
        with pytest.raises(UserError, match="'a' is listed more than once"):
            two.prepare(sql).execute() if prepared else two.execute(sql)
        assert two.query("SELECT count(*) n FROM t").rows == [(1,)]

    def test_analysis_reports_a_repeated_column(self, two):
        report = two.session().analyze("INSERT INTO t (a, a) VALUES (1, 2)")
        assert [(d.code, d.message) for d in report.diagnostics] == [
            ("RPR005", "column 'a' is listed more than once in INSERT")]

    def test_insert_select_column_list_is_validated_too(self, two):
        with pytest.raises(UserError, match="listed more than once"):
            two.execute("INSERT INTO t (c, c) SELECT c, c FROM t")

    def test_omitted_columns_take_null(self, two):
        two.prepare("INSERT INTO t (c, a) VALUES (?, ?)").executemany(
            [("x", 1), ("y", 2)])
        assert two.query("SELECT a, b, c FROM t WHERE a > 0").rows == [
            (1, None, "x"), (2, None, "y")]


# ---------------------------------------------------------------------------
# Inside an open transaction
# ---------------------------------------------------------------------------

class TestStagedBlocks:
    def test_read_your_writes_delete_update_and_savepoints(self, two):
        session = two.session()
        session.begin()
        insert = session.prepare("INSERT INTO t VALUES (?, ?, ?)")
        insert.executemany([(1, 1.5, "a"), (2, 2.5, "b"), (3, 3.5, "c")])
        assert session.query("SELECT a FROM t ORDER BY a").rows == [
            (0,), (1,), (2,), (3,)]
        session.execute("DELETE FROM t WHERE a = 2")
        session.execute("UPDATE t SET c = 'z' WHERE a = 3")
        session.savepoint("sp")
        insert.executemany([(4, 4.5, "d"), (5, 5.5, "e")])
        session.execute("UPDATE t SET b = 0.0 WHERE a = 1")
        assert session.query("SELECT count(*) n FROM t").rows == [(5,)]
        session.rollback_to("sp")
        assert session.query("SELECT a, b, c FROM t ORDER BY a").rows == [
            (0, 0.0, "seed"), (1, 1.5, "a"), (3, 3.5, "z")]
        # Nothing is visible outside the transaction until COMMIT.
        assert two.query("SELECT count(*) n FROM t").rows == [(1,)]
        session.commit()
        assert two.query("SELECT a, b, c FROM t ORDER BY a").rows == [
            (0, 0.0, "seed"), (1, 1.5, "a"), (3, 3.5, "z")]

    @pytest.mark.parametrize("edit", [
        "INSERT INTO t VALUES (3, 3.0, 'c')",
        "UPDATE t SET c = 'changed' WHERE a = 1",
        "DELETE FROM t WHERE a = 2"])
    def test_staged_block_read_is_not_edited_by_later_statements(
            self, two, edit):
        # A read stream opened on the overlay keeps serving the block as
        # of its creation while later statements edit the staged rows —
        # the second statement's edit is the one made in place.
        session = two.session()
        session.begin()
        insert = session.prepare("INSERT INTO t VALUES (?, ?, ?)")
        insert.executemany([(1, 1.0, "a")])
        insert.executemany([(2, 2.0, "b")])
        cursor = session.cursor()
        cursor.execute("SELECT a, c FROM t")
        session.execute(edit)
        session.execute(edit.replace("3", "4").replace("a = 1", "a = 2"))
        assert sorted(cursor.fetchall()) == [(0, "seed"), (1, "a"),
                                             (2, "b")]
        session.rollback()

    def test_many_statements_append_to_one_block(self, two):
        session = two.session()
        session.begin()
        insert = session.prepare("INSERT INTO t VALUES (?, ?, ?)")
        for a in range(1, 301):
            insert.execute((a, float(a), str(a)))
        session.savepoint("sp")
        insert.execute((999, 0.0, "late"))
        session.rollback_to("sp")
        insert.execute((301, 301.0, "301"))
        session.commit()
        rows = two.query("SELECT a, b, c FROM t WHERE a > 0").rows
        assert rows == [(a, float(a), str(a)) for a in range(1, 302)]


def test_prepared_insert_rebinds_after_create_or_replace(two):
    insert = two.prepare("INSERT INTO t VALUES (?, ?, ?)")
    insert.executemany([(1, 2, "x")])
    two.execute("CREATE OR REPLACE TABLE t (a text, b int, c float)")
    insert.executemany([(1, 2, "3.5")])
    assert two.query("SELECT * FROM t").rows == [("1", 2, 3.5)]


# ---------------------------------------------------------------------------
# Counted gate
# ---------------------------------------------------------------------------

@pytest.mark.perf
def test_prepared_insert_binds_once_and_stages_once_per_batch(monkeypatch):
    calls = {"bind": 0, "stage": 0}
    bind_expression = builder_mod.bind_expression
    insert_rows = Transaction.insert_rows

    def counted_bind(*args, **kwargs):
        calls["bind"] += 1
        return bind_expression(*args, **kwargs)

    def counted_stage(txn, table, columns):
        calls["stage"] += 1
        return insert_rows(txn, table, columns)

    monkeypatch.setattr(builder_mod, "bind_expression", counted_bind)
    monkeypatch.setattr(Transaction, "insert_rows", counted_stage)
    db = Database()
    db.execute("CREATE TABLE t (a int, b text)")
    insert = db.prepare("INSERT INTO t VALUES (?, ?)")
    batch = [(i, f"v{i}") for i in range(1000)]
    insert.executemany(batch)
    assert calls == {"bind": 2, "stage": 1}

    calls.update(bind=0, stage=0)
    insert.executemany(batch)
    insert.executemany(batch)
    assert calls == {"bind": 0, "stage": 2}

    db.execute("CREATE TABLE other (x int)")  # any DDL moves the epoch
    insert.executemany(batch)
    assert calls == {"bind": 2, "stage": 3}
    assert db.query("SELECT count(*) n FROM t").rows == [(4000,)]
