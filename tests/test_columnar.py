"""Unit tests for the columnar execution core.

Covers the three layers the columnar refactor introduced:

* the :class:`Relation` columnar block layout and its row-tuple
  compatibility view;
* the columnar :class:`ChangeSet` (a signed relation: constructors,
  the per-action selector, index-based consolidation);
* the vectorized expression compiler (value equivalence with the
  reference interpreter, including the lazy-evaluation guard semantics of
  AND/OR and CASE) and the columnar storage partition layout.
"""

import pytest

from repro.engine import types as t
from repro.engine.expressions import (Arithmetic, BooleanOp, Case, Cast,
                                      ColumnRef, Comparison, FunctionCall,
                                      InList, IsNull, Like, Literal, Not,
                                      DEFAULT_CONTEXT, DEFAULT_REGISTRY,
                                      compile_expression_columnar,
                                      compile_group_key_columnar,
                                      compile_row_columnar)
from repro.engine.relation import Relation
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.errors import EvaluationError, RowIdIntegrityError
from repro.ivm.changes import Action, Change, ChangeSet, consolidate
from repro.ivm.differentiator import DictDeltaSource, differentiate
from repro.plan.builder import DictSchemaProvider, build_plan
from repro.sql.parser import parse_query
from repro.storage.partition import Partition, build_partitions

ITEMS = schema_of(("id", SqlType.INT), ("grp", SqlType.TEXT),
                  ("val", SqlType.INT), table="items")


class TestRelationBlockLayout:
    def test_from_columns_round_trip(self):
        relation = Relation.from_columns(
            ITEMS, [[1, 2, 3], ["a", "b", "c"], [10, 20, 30]],
            ["r0", "r1", "r2"])
        assert relation.rows == [(1, "a", 10), (2, "b", 20), (3, "c", 30)]
        assert list(relation.pairs())[1] == ("r1", (2, "b", 20))
        assert len(relation) == 3

    def test_rows_to_columns_materialization(self):
        relation = Relation(ITEMS, [(1, "a", 10), (2, "b", 20)],
                            ["r0", "r1"])
        assert relation.columns == [[1, 2], ["a", "b"], [10, 20]]
        assert relation.column(2) == [10, 20]
        assert relation.columns is relation.columns  # cached once built

    def test_empty_columnar_relation(self):
        relation = Relation.from_columns(ITEMS, [[], [], []], [])
        assert len(relation) == 0
        assert relation.rows == []

    def test_positional_fallback_ids(self):
        relation = Relation(ITEMS, [(1, "a", 10)])
        assert relation.row_ids == ["pos:0"]
        columnar = Relation.from_columns(ITEMS, [[1], ["a"], [10]])
        assert columnar.row_ids == ["pos:0"]

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError):
            Relation(ITEMS, [(1, "a", 10)], ["r0", "r1"])
        with pytest.raises(ValueError):
            Relation.from_columns(ITEMS, [[1], ["a"], [10]], ["r0", "r1"])


class TestSoAChangeSet:
    def test_bulk_insert_delete(self):
        changes = ChangeSet.concat([
            ChangeSet.signed(Action.DELETE, ["a", "b"], [[1, 2]]),
            ChangeSet.signed(Action.INSERT, ["c"], [[3]]),
        ])
        assert len(changes) == 3
        assert changes.actions == [Action.DELETE, Action.DELETE,
                                   Action.INSERT]
        assert changes.under(Action.INSERT) == (["c"], [[3]])
        assert changes.under(Action.DELETE) == (["a", "b"], [[1, 2]])
        assert not changes.insert_only

    def test_extend_changeset_is_bulk(self):
        left = ChangeSet([Change(Action.INSERT, "a", (1,))])
        right = ChangeSet([Change(Action.DELETE, "b", (2,))])
        both = ChangeSet.concat([left, right])
        assert both.row_ids == ["a", "b"]
        assert both.columns == [[1, 2]]
        assert [c.action for c in both] == [Action.INSERT, Action.DELETE]

    def test_consolidate_on_arrays(self):
        changes = ChangeSet.concat([
            ChangeSet.signed(Action.DELETE, ["a", "b"], [[1, 2]]),
            ChangeSet.signed(Action.INSERT, ["a", "c"], [[1, 3]]),
        ])  # a: copied row
        result = consolidate(changes)
        assert [(c.action, c.row_id) for c in result] == [
            (Action.DELETE, "b"), (Action.INSERT, "c")]
        assert result.columns == [[2, 3]]


class TestColumnarPartitions:
    def test_partition_stores_columns(self):
        partition = Partition.from_columns(
            [f"r{i}" for i in range(5)],
            [range(5), [f"g{i % 2}" for i in range(5)], range(0, 50, 10)])
        assert partition.columns[0] == (0, 1, 2, 3, 4)
        assert partition.row_ids == tuple(f"r{i}" for i in range(5))
        assert not hasattr(partition, "rows")  # columns are the only layout

    def test_zone_maps_from_column_arrays(self):
        partition = Partition.from_columns(
            ["r0", "r1", "r2"], [[5, None, 9], ["x", "y", "z"]])
        num, text = partition.zone_maps
        assert (num.kind, num.low, num.high, num.has_null) == (
            "num", 5, 9, True)
        assert (text.kind, text.low, text.high) == ("str", "x", "z")

    def test_build_partitions_chunks(self):
        partitions = build_partitions([f"r{i}" for i in range(7)],
                                      [list(range(7))], 3)
        assert [len(p) for p in partitions] == [3, 3, 1]
        assert partitions[2].columns == ((6,),)

    def test_edited_drops_and_replaces_by_index(self):
        partition = Partition.from_columns(
            ["r0", "r1", "r2", "r3"], [[0, 1, 2, 3], ["a", "b", "c", "d"]])
        row_ids, columns, zone_maps = partition.edited(
            {"r1", "r3", "elsewhere"}, {"r2": (20, "C"), "r3": (30, "D")})
        assert row_ids == ["r0", "r2"]
        assert columns == [[0, 20], ["a", "C"]]  # r3: the delete wins
        assert zone_maps is None  # r2 took new values
        assert partition.columns[0] == (0, 1, 2, 3)  # untouched


#: Expression battery for interpreter-vs-vectorized equivalence. Each
#: entry builds an expression over (id INT, grp TEXT, val INT).
def _battery():
    id_col = ColumnRef(0, SqlType.INT, "id")
    grp = ColumnRef(1, SqlType.TEXT, "grp")
    val = ColumnRef(2, SqlType.INT, "val")
    length = DEFAULT_REGISTRY.lookup("length")
    coalesce = DEFAULT_REGISTRY.lookup("coalesce")
    return [
        Literal(7),
        id_col,
        Arithmetic("+", id_col, Literal(1)),
        Arithmetic("*", id_col, val),
        Arithmetic("-", val, id_col),
        Comparison(">", val, Literal(5)),
        Comparison("=", grp, Literal("a")),
        Comparison("<=", id_col, val),
        BooleanOp("and", (Comparison(">", val, Literal(2)),
                          Comparison("=", grp, Literal("a")))),
        BooleanOp("or", (IsNull(val), Comparison("<", id_col, Literal(3)))),
        Not(Comparison("=", grp, Literal("b"))),
        IsNull(val),
        IsNull(val, negated=True),
        InList(grp, (Literal("a"), Literal("b"), Literal(None))),
        Like(grp, Literal("a%")),
        Like(grp, Literal("_"), negated=True),
        Case(((Comparison(">", val, Literal(5)), Literal("big")),),
             Literal("small")),
        Cast(val, SqlType.TEXT),
        Cast(id_col, SqlType.FLOAT),
        FunctionCall(length, (grp,)),
        FunctionCall(coalesce, (val, id_col)),
        # The guard idiom: the division must never run where val = 0.
        BooleanOp("and", (Comparison("!=", val, Literal(0)),
                          Comparison(">", Arithmetic("/", Literal(100), val),
                                     Literal(10)))),
        Case(((Comparison("!=", val, Literal(0)),
               Arithmetic("/", Literal(100), val)),), Literal(0)),
    ]


_COLUMNS = [
    [1, 2, 3, 4, 5, 6],
    ["a", "b", "ab", None, "a", "c"],
    [10, 0, None, 3, 7, 0],
]


class TestVectorizedEvaluators:
    @pytest.mark.parametrize("expr", _battery(), ids=lambda e: repr(e)[:60])
    def test_matches_interpreter(self, expr):
        rows = list(zip(*_COLUMNS))
        expected = [expr.eval(row, DEFAULT_CONTEXT) for row in rows]
        fn = compile_expression_columnar(expr)
        assert fn(_COLUMNS, len(rows)) == expected

    def test_guard_and_never_divides_by_zero(self):
        val = ColumnRef(2, SqlType.INT, "val")
        guarded = BooleanOp("and", (
            Comparison("!=", val, Literal(0)),
            Comparison(">", Arithmetic("/", Literal(1), val), Literal(0))))
        fn = compile_expression_columnar(guarded)
        # val contains zeros; the vectorized form must not raise.
        assert fn(_COLUMNS, 6) == [True, False, None, True, True, False]

    def test_unguarded_division_still_raises(self):
        val = ColumnRef(2, SqlType.INT, "val")
        expr = Arithmetic("/", Literal(1), val)
        fn = compile_expression_columnar(expr)
        with pytest.raises(EvaluationError, match="division by zero"):
            fn(_COLUMNS, 6)

    def test_compile_row_columnar(self):
        id_col = ColumnRef(0, SqlType.INT, "id")
        val = ColumnRef(2, SqlType.INT, "val")
        fn = compile_row_columnar([id_col, Arithmetic("+", val, Literal(1))])
        out = fn(_COLUMNS, 6)
        assert out[0] == _COLUMNS[0]
        assert out[1] == [11, 1, None, 4, 8, 1]

    def test_compile_group_key_columnar(self):
        grp = ColumnRef(1, SqlType.TEXT, "grp")
        fn = compile_group_key_columnar([grp])
        keys = fn(_COLUMNS, 6)
        rows = list(zip(*_COLUMNS))
        assert keys == [t.group_key((row[1],)) for row in rows]
        scalar = compile_group_key_columnar([])
        assert scalar(_COLUMNS, 3) == [t.group_key(())] * 3


PROVIDER = DictSchemaProvider({"items": ITEMS})


class TestPositionalIdGuard:
    def test_endpoint_scan_with_pos_ids_rejected(self):
        # Aggregation recomputes affected groups at both endpoints, so the
        # anonymous relation reaches the endpoint resolver and must be
        # rejected there.
        plan = build_plan(parse_query(
            "SELECT grp, count(*) n FROM items GROUP BY grp"), PROVIDER)
        anonymous = Relation(ITEMS, [(1, "a", 5)])  # pos: fallback ids
        delta = ChangeSet([Change(Action.INSERT, "real:0", (2, "b", 6))])
        source = DictDeltaSource({"items": anonymous}, {"items": anonymous},
                                 {"items": delta})
        with pytest.raises(RowIdIntegrityError, match="pos"):
            differentiate(plan, source)

    def test_source_delta_with_pos_ids_rejected(self):
        plan = build_plan(parse_query(
            "SELECT id FROM items WHERE val > 1"), PROVIDER)
        proper = Relation(ITEMS, [(1, "a", 5)], ["b1:0"])
        delta = ChangeSet([Change(Action.INSERT, "pos:0", (2, "b", 6))])
        source = DictDeltaSource({"items": proper}, {"items": proper},
                                 {"items": delta})
        with pytest.raises(RowIdIntegrityError, match="pos"):
            differentiate(plan, source)

    def test_proper_ids_pass(self):
        plan = build_plan(parse_query(
            "SELECT id FROM items WHERE val > 1"), PROVIDER)
        proper = Relation(ITEMS, [(1, "a", 5)], ["b1:0"])
        delta = ChangeSet([Change(Action.INSERT, "b1:1", (2, "b", 6))])
        new = Relation(ITEMS, [(1, "a", 5), (2, "b", 6)], ["b1:0", "b1:1"])
        source = DictDeltaSource({"items": proper}, {"items": new},
                                 {"items": delta})
        changes, __ = differentiate(plan, source)
        assert [c.row_id for c in changes] == ["b1:1"]


# ---------------------------------------------------------------------------
# One layout from partition to delta to partition
# ---------------------------------------------------------------------------

#: One DT shape per derivative-rule family the refresh path runs.
_DT_SHAPES = {
    "filter_project": "SELECT id, val + 1 v FROM items WHERE val > 15",
    "inner_join": ("SELECT i.id, i.val, l.label FROM items i "
                   "JOIN lookup l ON i.grp = l.k"),
    "left_outer_join": ("SELECT i.id, i.val, l.label FROM items i "
                        "LEFT JOIN lookup l ON i.grp = l.k"),
    "partitioned_window": ("SELECT id, grp, val, row_number() OVER "
                           "(PARTITION BY grp ORDER BY val DESC) rn "
                           "FROM items"),
    "grouped_aggregate": ("SELECT grp, count(*) n, sum(val) s FROM items "
                          "GROUP BY grp"),
}


class TestRefreshNeverAsksForTheRowView:
    @pytest.mark.parametrize("shape", sorted(_DT_SHAPES))
    def test_incremental_refresh_without_row_view(self, shape, monkeypatch):
        from repro import Database
        from repro.core.dynamic_table import RefreshAction

        db = Database()
        db.create_warehouse("wh")
        db.execute("CREATE TABLE items (id int, grp text, val int)")
        db.execute("CREATE TABLE lookup (k text, label text)")
        db.execute("INSERT INTO items VALUES (1, 'a', 10), (2, 'b', 20), "
                   "(3, 'a', 30), (4, 'c', 40)")
        db.execute("INSERT INTO lookup VALUES ('a', 'alpha'), ('b', 'beta')")
        sql = _DT_SHAPES[shape]
        incremental = db.create_dynamic_table("inc", sql, "1 minute", "wh",
                                              refresh_mode="incremental")
        db.create_dynamic_table("ful", sql, "1 minute", "wh",
                                refresh_mode="full")

        # An insert, an update and a delete on the fact side, and a
        # dimension row that turns an unmatched key into a match.
        db.execute("INSERT INTO items VALUES (5, 'b', 50)")
        db.execute("UPDATE items SET val = 35 WHERE id = 3")
        db.execute("DELETE FROM items WHERE id = 2")
        db.execute("INSERT INTO lookup VALUES ('c', 'gamma')")

        def refuse(*args):
            raise AssertionError("the refresh path asked for the row view")

        with monkeypatch.context() as patched:
            patched.setattr(Relation, "rows", property(refuse))
            patched.setattr(Relation, "pairs", refuse)
            record = db.refresh_dynamic_table("inc")
        assert record.error is None, record.error
        assert record.action == RefreshAction.INCREMENTAL
        assert incremental.refresh_history[-1] is record

        db.refresh_dynamic_table("ful")
        assert (db.catalog.versioned_table("inc").rows_by_id()
                == db.catalog.versioned_table("ful").rows_by_id())
        assert db.check_dvs("inc")


def _reference_join(kind, left, right, on):
    """Row-at-a-time nested-loop join: ``(row_id, row)`` pairs in the
    order and under the ids the executor emits. ``on(left_row,
    right_row)`` is the whole join condition."""
    from repro.ivm import rowid

    out = []
    matched_right = set()
    for left_id, left_row in left.pairs():
        hit = False
        for index, (right_id, right_row) in enumerate(right.pairs()):
            if on(left_row, right_row):
                hit = True
                matched_right.add(index)
                out.append((rowid.join_id(left_id, right_id),
                            left_row + right_row))
        if not hit and kind in ("left", "full"):
            out.append((rowid.outer_left_id(left_id),
                        left_row + (None,) * len(right.schema)))
    if kind in ("right", "full"):
        for index, (right_id, right_row) in enumerate(right.pairs()):
            if index not in matched_right:
                out.append((rowid.outer_right_id(right_id),
                            (None,) * len(left.schema) + right_row))
    return out


LOOKUP = schema_of(("k", SqlType.TEXT), ("floor", SqlType.INT),
                   table="lookup")

_JOIN_INPUTS = {
    "both": ([(1, "a", 10), (2, "b", 20), (3, "a", 30), (4, None, 40),
              (5, "z", 50)],
             [("a", 5), ("a", 25), ("b", 99), (None, 0), ("q", 1)]),
    "empty_left": ([], [("a", 5)]),
    "empty_right": ([(1, "a", 10)], []),
    "all_null_keys": ([(1, None, 10), (2, None, 20)],
                      [(None, 0), (None, 1)]),
}


class TestJoinByGather:
    @pytest.mark.parametrize("inputs", sorted(_JOIN_INPUTS))
    @pytest.mark.parametrize("kind", ["inner", "left", "right", "full",
                                      "cross"])
    def test_matches_row_at_a_time_reference(self, kind, inputs):
        from repro.engine.executor import join_relations

        left_rows, right_rows = _JOIN_INPUTS[inputs]
        left = Relation(ITEMS, list(left_rows),
                        [f"i{n}" for n in range(len(left_rows))])
        right = Relation(LOOKUP, list(right_rows),
                         [f"l{n}" for n in range(len(right_rows))])
        provider = DictSchemaProvider({"items": ITEMS, "lookup": LOOKUP})
        if kind == "cross":
            sql = "SELECT * FROM items CROSS JOIN lookup"

            def on(left_row, right_row):
                return True
        else:
            # An equi-key plus a residual over both sides.
            sql = (f"SELECT * FROM items {kind} JOIN lookup "
                   "ON items.grp = lookup.k AND items.val > lookup.floor")

            def on(left_row, right_row):
                return (left_row[1] is not None and left_row[1] == right_row[0]
                        and left_row[2] > right_row[1])
        plan = build_plan(parse_query(sql), provider)
        join = next(node for node in plan.walk()
                    if type(node).__name__ == "Join")
        joined = join_relations(join, left, right, DEFAULT_CONTEXT)
        assert list(joined.pairs()) == _reference_join(kind, left, right, on)
        assert len(joined.columns) == len(ITEMS) + len(LOOKUP)
