"""The laziness matrix: guard idioms x every caller position.

``CASE`` evaluates only the branch its condition selects, ``AND``/``OR``
stop at the first dominating value and ``IN`` stops at the first matching
item. The vectorized compiler keeps that contract with selection vectors
(each later branch / operand / item runs only over the rows still
undecided), and every operator and derivative rule evaluates through it —
so a guard such as ``b <> 0 AND 10 / b > 1`` must protect its division
wherever the expression sits: WHERE, SELECT list, JOIN ... ON (with and
without equi-keys), ORDER BY, ``ORDER BY ... LIMIT k`` through a streaming
cursor, aggregate and window arguments, window ORDER BY, UPDATE SET,
DELETE WHERE, and a dynamic table's defining query under incremental
refresh. Each cell must equal its ``force_interpreted()`` twin, and the
unguarded forms must raise the interpreter's ``EvaluationError``.

Also here: a non-equi join evaluates its condition over bounded batches
of candidate pairs, never the whole L x R space at once.
"""

import pytest

from repro import Database
from repro.core.dynamic_table import RefreshAction
from repro.engine import executor
from repro.engine.expressions import force_interpreted
from repro.engine.relation import DictResolver, Relation
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.errors import EvaluationError, UserError
from repro.plan.builder import DictSchemaProvider, build_plan
from repro.sql.parser import parse_query

# t(id, k, a, b): b is 0 on some rows and NULL on others; a has NULLs.
T_ROWS = [(1, 1, 5, 0), (2, 1, 2, 2), (3, 2, None, 5), (4, 2, 0, None),
          (5, 1, 10, 10), (6, 3, 4, 20), (7, 3, 7, 0), (8, 2, 5, 5)]
U_ROWS = [(1, 1, 2), (2, 2, 5), (3, 2, None), (4, 4, 0)]

#: name -> (expression template, kind). ``{a}`` / ``{b}`` are the column
#: references (qualified differently in join positions).
GUARDED = {
    "and": ("{b} <> 0 AND 10 / {b} > 1", "bool"),
    "or": ("{b} = 0 OR 10 / {b} > 1", "bool"),
    "case": ("CASE WHEN {b} <> 0 THEN 10 / {b} ELSE 0 END", "num"),
    "iff": ("iff({b} <> 0, 10 / {b}, 0)", "num"),
    "in": ("{b} IN (0, {a})", "bool"),
    "in_guarding": ("{b} IN (0, 10 / {b})", "bool"),
    "not_in_null": ("{b} = 0 OR {b} NOT IN (1, 10 / {b}, NULL)", "bool"),
}
UNGUARDED = {
    "div_cmp": ("10 / {b} > 1", "bool"),
    "and_unguarded": ("{b} IS NOT NULL AND 10 / {b} > 1", "bool"),
    "case_unguarded": ("CASE WHEN {a} > 0 THEN 10 / {b} ELSE 0 END", "num"),
    "in_unguarded": ("{a} IN (10 / {b}, 1)", "bool"),
}


def as_bool(expr, kind):
    return expr if kind == "bool" else f"({expr}) > 1"


def as_num(expr, kind):
    return expr if kind == "num" else f"iff({expr}, 1, 0)"


def make_db():
    db = Database()
    db.create_warehouse("wh")
    db.execute("CREATE TABLE t (id int, k int, a int, b int)")
    db.execute("CREATE TABLE u (id int, k int, a int)")
    # Several micro-partitions, so cursors stream and DML prunes.
    db.catalog.versioned_table("t").partition_rows = 3
    cursor = db.session().cursor()
    cursor.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", T_ROWS)
    cursor.executemany("INSERT INTO u VALUES (?, ?, ?)", U_ROWS)
    return db


def _query(db, sql):
    result = db.query(sql)
    return list(zip(result.row_ids, result.rows))


def _single(template):
    def run(db, expr, kind):
        sql = template.format(e=expr.format(a="a", b="b"),
                              bool=as_bool(expr, kind).format(a="a", b="b"),
                              num=as_num(expr, kind).format(a="a", b="b"))
        return _query(db, sql)
    return run


def _join(template):
    def run(db, expr, kind):
        condition = as_bool(expr, kind).format(a="u.a", b="t.b")
        return _query(db, template.format(bool=condition))
    return run


def _topk_cursor(db, expr, kind):
    cursor = db.session().cursor()
    cursor.arraysize = 2
    cursor.execute("SELECT id, b FROM t ORDER BY {e}, id LIMIT 5".format(
        e=expr.format(a="a", b="b")))
    return cursor.fetchall()


def _dml(db, sql):
    count = db.session().cursor().execute(sql).rowcount
    return count, _query(db, "SELECT * FROM t")


def _update_set(db, expr, kind):
    return _dml(db, "UPDATE t SET a = cast({num} as int)".format(
        num=as_num(expr, kind).format(a="a", b="b")))


def _delete_where(db, expr, kind):
    return _dml(db, "DELETE FROM t WHERE {bool}".format(
        bool=as_bool(expr, kind).format(a="a", b="b")))


def _dynamic_table(db, expr, kind):
    """Defining query with the idiom in its SELECT list and its WHERE;
    the second refresh (insert + update + delete upstream, all touching
    ``b = 0`` rows) must be INCREMENTAL."""
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS "
        "SELECT id, {e} v FROM t WHERE {bool} OR id > 6".format(
            e=expr.format(a="a", b="b"),
            bool=as_bool(expr, kind).format(a="a", b="b")))
    first = _query(db, "SELECT * FROM d")
    db.execute("INSERT INTO t VALUES (9, 3, 1, 0), (10, 1, 3, 4)")
    db.execute("UPDATE t SET b = 0 WHERE id = 2")
    db.execute("UPDATE t SET b = 5 WHERE id = 7")
    db.execute("DELETE FROM t WHERE id = 1")
    db.execute("ALTER DYNAMIC TABLE d REFRESH")
    record = db.dynamic_table("d").refresh_history[-1]
    assert record.action == RefreshAction.INCREMENTAL, record
    assert db.check_dvs("d")
    return first, _query(db, "SELECT * FROM d")


POSITIONS = {
    "where": _single("SELECT id FROM t WHERE {bool}"),
    "select_list": _single("SELECT id, {e} v FROM t"),
    "join_inner_residual": _join(
        "SELECT t.id, u.id FROM t JOIN u ON t.k = u.k AND ({bool})"),
    "join_left_residual": _join(
        "SELECT t.id, u.id FROM t LEFT JOIN u ON t.k = u.k AND ({bool})"),
    "join_left_non_equi": _join(
        "SELECT t.id, u.id FROM t LEFT JOIN u ON {bool}"),
    "order_by": _single("SELECT id FROM t ORDER BY {e}, id"),
    "order_by_limit_cursor": _topk_cursor,
    "aggregate_argument": _single(
        "SELECT k, count_if({bool}) c, sum({num}) s FROM t GROUP BY k"),
    "window_argument": _single(
        "SELECT id, sum({num}) OVER (PARTITION BY k ORDER BY id) w, "
        "count_if({bool}) OVER (PARTITION BY k) c FROM t"),
    "window_order_by": _single(
        "SELECT id, row_number() OVER (PARTITION BY k ORDER BY {e}, id) rn "
        "FROM t"),
    "update_set": _update_set,
    "delete_where": _delete_where,
    "dynamic_table_incremental": _dynamic_table,
}


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("idiom", GUARDED)
def test_guard_protects_in_every_position(idiom, position):
    expr, kind = GUARDED[idiom]
    produced = POSITIONS[position](make_db(), expr, kind)
    with force_interpreted():
        interpreted = POSITIONS[position](make_db(), expr, kind)
    assert produced == interpreted
    assert produced  # every cell selects or emits something


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("idiom", UNGUARDED)
def test_unguarded_form_raises_the_interpreter_error(idiom, position):
    expr, kind = UNGUARDED[idiom]

    def attempt():
        # CREATE DYNAMIC TABLE reports its failed initial refresh as a
        # UserError quoting the refresh's EvaluationError.
        with pytest.raises((EvaluationError, UserError)) as excinfo:
            POSITIONS[position](make_db(), expr, kind)
        return str(excinfo.value)

    produced = attempt()
    with force_interpreted():
        assert attempt() == produced
    assert produced.endswith("division by zero")


def test_guarded_values_are_what_sql_says():
    """One cell spelled out, so the matrix is not only self-consistent."""
    db = make_db()
    assert db.query(
        "SELECT id, CASE WHEN b <> 0 THEN 10 / b ELSE 0 END, "
        "b <> 0 AND 10 / b > 1, b = 0 OR 10 / b > 1, b IN (0, a), "
        "b NOT IN (1, NULL) FROM t ORDER BY id").rows == [
        (1, 0, False, True, True, None),
        (2, 5.0, True, True, True, None),
        (3, 2.0, True, True, None, None),
        (4, 0, None, None, None, None),
        (5, 1.0, False, False, True, None),
        (6, 0.5, False, False, False, None),
        (7, 0, False, True, True, None),
        (8, 2.0, True, True, True, None),
    ]


# ---------------------------------------------------------------------------
# Non-equi joins evaluate their condition in bounded batches
# ---------------------------------------------------------------------------

SIDE = 2_000
L = schema_of(("x", SqlType.INT), table="l")
R = schema_of(("y", SqlType.INT), table="r")
NON_EQUI = build_plan(
    parse_query("SELECT l.x, r.y FROM l JOIN r ON l.x + r.y = 2 * l.x "
                "AND r.y % 2 = 0"),
    DictSchemaProvider({"l": L, "r": R}))


def _sides():
    return {"l": Relation.from_columns(L, [list(range(SIDE))],
                                       [f"l{n}" for n in range(SIDE)]),
            "r": Relation.from_columns(R, [list(range(SIDE))],
                                       [f"r{n}" for n in range(SIDE)])}


def test_non_equi_join_never_materializes_the_cross_product(monkeypatch):
    """2 000 x 2 000 candidate pairs, 1 000 matches: the condition must be
    evaluated over at most ``JOIN_PAIR_BATCH`` (+ one left row) gathered
    pairs at a time — never the 4 M-pair candidate space at once."""
    batch_sizes = []
    real = executor.gather_columns

    def probe(columns, needed, indices):
        batch_sizes.append(len(indices))
        return real(columns, needed, indices)

    monkeypatch.setattr(executor, "gather_columns", probe)
    result = executor.evaluate(NON_EQUI, DictResolver(_sides()))

    assert sorted(result.rows) == [(n, n) for n in range(0, SIDE, 2)]
    assert sum(batch_sizes) == 2 * SIDE * SIDE  # every pair, both sides
    assert max(batch_sizes) < executor.JOIN_PAIR_BATCH + SIDE
