"""Unit tests for the columnar execution core.

Covers the three layers the columnar refactor introduced:

* the :class:`Relation` columnar block layout and its row-tuple
  compatibility view;
* the struct-of-arrays :class:`ChangeSet` (bulk mutation, array accessors,
  vectorized consolidation);
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
from repro.ivm.changes import Action, Change, ChangeSet, consolidate, invert
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
        assert relation.is_columnar
        assert relation.rows == [(1, "a", 10), (2, "b", 20), (3, "c", 30)]
        assert list(relation.pairs())[1] == ("r1", (2, "b", 20))
        assert len(relation) == 3

    def test_rows_to_columns_materialization(self):
        relation = Relation(ITEMS, [(1, "a", 10), (2, "b", 20)],
                            ["r0", "r1"])
        assert not relation.is_columnar
        assert relation.columns == [[1, 2], ["a", "b"], [10, 20]]
        assert relation.column(2) == [10, 20]
        assert relation.is_columnar  # cached after first access

    def test_append_keeps_layouts_in_sync(self):
        relation = Relation.from_columns(ITEMS, [[1], ["a"], [10]], ["r0"])
        __ = relation.rows  # materialize both layouts
        relation.append("r1", (2, "b", 20))
        assert relation.rows == [(1, "a", 10), (2, "b", 20)]
        assert relation.columns == [[1, 2], ["a", "b"], [10, 20]]
        assert relation.row_ids == ["r0", "r1"]

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
        changes = ChangeSet()
        changes.delete_many(["a", "b"], [(1,), (2,)])
        changes.insert_many(["c"], [(3,)])
        assert len(changes) == 3
        assert changes.actions == [Action.DELETE, Action.DELETE,
                                   Action.INSERT]
        assert changes.insert_arrays() == (["c"], [(3,)])
        assert changes.delete_arrays() == (["a", "b"], [(1,), (2,)])
        assert not changes.insert_only

    def test_changes_view_and_setter(self):
        changes = ChangeSet()
        changes.insert("a", (1,))
        view = changes.changes
        assert view == [Change(Action.INSERT, "a", (1,))]
        changes.changes = [Change(Action.DELETE, "b", (2,))]
        assert changes.row_ids == ["b"]
        assert changes.actions == [Action.DELETE]

    def test_extend_changeset_is_bulk(self):
        left = ChangeSet()
        left.insert("a", (1,))
        right = ChangeSet()
        right.delete("b", (2,))
        left.extend(right)
        assert left.row_ids == ["a", "b"]
        assert [c.action for c in left] == [Action.INSERT, Action.DELETE]

    def test_consolidate_on_arrays(self):
        changes = ChangeSet()
        changes.delete_many(["a", "b"], [(1,), (2,)])
        changes.insert_many(["a", "c"], [(1,), (3,)])  # a: copied row
        result = consolidate(changes)
        assert [(c.action, c.row_id) for c in result] == [
            (Action.DELETE, "b"), (Action.INSERT, "c")]

    def test_invert_preserves_arrays(self):
        changes = ChangeSet()
        changes.insert("a", (1,))
        changes.delete("b", (2,))
        inverted = invert(changes)
        assert inverted.actions == [Action.DELETE, Action.INSERT]
        assert inverted.row_ids == ["a", "b"]
        assert changes.actions == [Action.INSERT, Action.DELETE]  # untouched


class TestColumnarPartitions:
    def test_partition_stores_columns(self):
        pairs = [(f"r{i}", (i, f"g{i % 2}", i * 10)) for i in range(5)]
        partition = Partition.create(pairs)
        assert partition.columns[0] == (0, 1, 2, 3, 4)
        assert partition.row_ids == tuple(f"r{i}" for i in range(5))
        assert partition.rows == tuple(pairs)  # compatibility view

    def test_zone_maps_from_column_arrays(self):
        partition = Partition.from_columns(
            ["r0", "r1", "r2"], [[5, None, 9], ["x", "y", "z"]])
        num, text = partition.zone_maps
        assert (num.kind, num.low, num.high, num.has_null) == (
            "num", 5, 9, True)
        assert (text.kind, text.low, text.high) == ("str", "x", "z")

    def test_build_partitions_chunks(self):
        pairs = [(f"r{i}", (i,)) for i in range(7)]
        partitions = build_partitions(pairs, 3)
        assert [len(p) for p in partitions] == [3, 3, 1]
        assert partitions[2].columns == ((6,),)


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
        delta = ChangeSet()
        delta.insert("real:0", (2, "b", 6))
        source = DictDeltaSource({"items": anonymous}, {"items": anonymous},
                                 {"items": delta})
        with pytest.raises(RowIdIntegrityError, match="pos"):
            differentiate(plan, source)

    def test_source_delta_with_pos_ids_rejected(self):
        plan = build_plan(parse_query(
            "SELECT id FROM items WHERE val > 1"), PROVIDER)
        proper = Relation(ITEMS, [(1, "a", 5)], ["b1:0"])
        delta = ChangeSet()
        delta.insert("pos:0", (2, "b", 6))
        source = DictDeltaSource({"items": proper}, {"items": proper},
                                 {"items": delta})
        with pytest.raises(RowIdIntegrityError, match="pos"):
            differentiate(plan, source)

    def test_proper_ids_pass(self):
        plan = build_plan(parse_query(
            "SELECT id FROM items WHERE val > 1"), PROVIDER)
        proper = Relation(ITEMS, [(1, "a", 5)], ["b1:0"])
        delta = ChangeSet()
        delta.insert("b1:1", (2, "b", 6))
        new = Relation(ITEMS, [(1, "a", 5), (2, "b", 6)], ["b1:0", "b1:1"])
        source = DictDeltaSource({"items": proper}, {"items": new},
                                 {"items": delta})
        changes, __ = differentiate(plan, source)
        assert [c.row_id for c in changes] == ["b1:1"]
