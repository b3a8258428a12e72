"""Regression tests for the batched execution layer and its hot-path fixes.

Covers: the vectorized expression compiler (constant folding, deferred
errors, interpreter equivalence), zone-map partition pruning, the
streaming LIMIT, the bounded relation cache, O(1) version access,
HLC-precise ``version_at``, the data-equivalent change-query skip, and the
refresh engine's compiled-plan cache.
"""

import pytest

from repro import Database
from repro.engine.executor import evaluate, extract_scan_bounds
from repro.engine.expressions import (BooleanOp, Case, ColumnRef, Comparison,
                                      ContextFunction, EvalContext,
                                      FunctionCall, DEFAULT_REGISTRY, InList,
                                      IsNull, Like, Literal, Arithmetic,
                                      compile_expression_columnar,
                                      compile_row_columnar, force_interpreted)
from repro.engine.relation import DictResolver
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.errors import EvaluationError, UserError, VersionNotFound
from repro.plan import logical as lp
from repro.storage.table import (RELATION_CACHE_VERSIONS, StagedWrite,
                                 VersionedTable)
from repro.streams.changes import changes_between

from deltas import columns_of, deletes, inserts
from repro.txn.hlc import HlcTimestamp

ITEMS = schema_of(("id", SqlType.INT), ("grp", SqlType.TEXT),
                  ("val", SqlType.INT), table="items")


def make_table(partition_rows=4):
    return VersionedTable("t", ITEMS, table_seq=1,
                          partition_rows=partition_rows)


def insert(table, rows, wall):
    return table.apply(StagedWrite(inserts=columns_of(rows)),
                       HlcTimestamp(wall))


# ---------------------------------------------------------------------------
# The vectorized compiler
# ---------------------------------------------------------------------------

_TEN_OVER_ID = Arithmetic("/", Literal(10), ColumnRef(0, SqlType.INT))


class TestCompiler:
    def test_column_and_literal(self):
        fn = compile_expression_columnar(ColumnRef(1, SqlType.TEXT))
        assert list(fn([[7, 8], ["x", "y"], [9, 9]], 2)) == ["x", "y"]
        assert compile_expression_columnar(Literal(42))([], 3) == [42] * 3

    def test_constant_folding(self):
        expr = Arithmetic("+", Literal(2), Literal(3))
        assert compile_expression_columnar(expr)([], 2) == [5, 5]

    def test_context_function_folds_to_pinned_timestamp(self):
        fn = compile_expression_columnar(ContextFunction("current_timestamp"),
                                         EvalContext(timestamp=123))
        assert fn([], 1) == [123]

    def test_erroring_constant_defers_to_runtime(self):
        expr = Arithmetic("/", Literal(1), Literal(0))
        fn = compile_expression_columnar(expr)  # compiling must not raise
        assert fn([], 0) == []  # ... nor does running over no rows
        with pytest.raises(EvaluationError):
            fn([], 1)

    def test_volatile_udf_not_folded(self):
        registry_calls = []

        def volatile():
            registry_calls.append(1)
            return len(registry_calls)

        registry = type(DEFAULT_REGISTRY)()
        registry.register_udf("ticker", volatile, SqlType.INT,
                              immutable=False)
        call = FunctionCall(registry.lookup("ticker"), ())
        fn = compile_expression_columnar(call)
        assert fn([], 2) == [1, 2]  # evaluated per row, not folded
        assert fn([], 1) == [3]

    @pytest.mark.parametrize("expr", [
        Comparison(">=", ColumnRef(2, SqlType.INT), Literal(5)),
        Comparison("=", ColumnRef(1, SqlType.TEXT), Literal("a")),
        Comparison("<", Literal(10), ColumnRef(0, SqlType.INT)),
        BooleanOp("and", (IsNull(ColumnRef(1, SqlType.TEXT)),
                          Comparison("<", ColumnRef(0, SqlType.INT),
                                     Literal(3)))),
        BooleanOp("or", (Comparison("=", ColumnRef(1, SqlType.TEXT),
                                    Literal("b")),
                         IsNull(ColumnRef(2, SqlType.INT), negated=True))),
        InList(ColumnRef(0, SqlType.INT),
               (Literal(1), Literal(None), Literal(4))),
        Like(ColumnRef(1, SqlType.TEXT), Literal("a%")),
        Case(((Comparison(">", ColumnRef(2, SqlType.INT), Literal(5)),
               Literal("big")),), Literal("small")),
        Arithmetic("*", ColumnRef(2, SqlType.INT), Literal(3)),
        Arithmetic("%", ColumnRef(0, SqlType.INT), Literal(7)),
        # Lazy constructs: column 0 is 0 on one row, so each guard decides
        # where the division may be evaluated (selection vectors).
        BooleanOp("and", (Comparison("<>", ColumnRef(0, SqlType.INT),
                                     Literal(0)),
                          Comparison(">", _TEN_OVER_ID, Literal(1)))),
        BooleanOp("or", (IsNull(ColumnRef(2, SqlType.INT)),
                         Comparison("=", ColumnRef(0, SqlType.INT),
                                    Literal(0)),
                         Comparison(">", _TEN_OVER_ID, Literal(1)))),
        Case(((Comparison("<>", ColumnRef(0, SqlType.INT), Literal(0)),
               _TEN_OVER_ID),
              (IsNull(ColumnRef(1, SqlType.TEXT)), Literal(-1))),
             ColumnRef(2, SqlType.INT)),
        InList(ColumnRef(0, SqlType.INT), (Literal(0), _TEN_OVER_ID,
                                           ColumnRef(2, SqlType.INT))),
        InList(ColumnRef(2, SqlType.INT),
               (Literal(None), ColumnRef(0, SqlType.INT)), negated=True),
        Like(ColumnRef(1, SqlType.TEXT),
             FunctionCall(DEFAULT_REGISTRY.lookup("concat"),
                          (ColumnRef(1, SqlType.TEXT), Literal("%")))),
    ])
    def test_compiled_matches_eval_over_sample_rows(self, expr):
        ctx = EvalContext(timestamp=99)
        rows = [(1, "a", 10), (2, "b", 2), (9, None, None), (0, "abc", 5),
                (15, "b", -1)]
        compiled = compile_expression_columnar(expr, ctx)
        assert list(compiled(list(zip(*rows)), len(rows))) == [
            expr.eval(row, ctx) for row in rows]

    def test_compile_row_matches_tuple_of_evals(self):
        exprs = (ColumnRef(0, SqlType.INT),
                 Arithmetic("+", ColumnRef(2, SqlType.INT), Literal(1)),
                 Literal("k"))
        fn = compile_row_columnar(exprs)
        rows = [(4, "g", 7), (5, "h", None)]
        assert list(zip(*fn(list(zip(*rows)), len(rows)))) == [
            tuple(e.eval(row, EvalContext()) for e in exprs) for row in rows]

    def test_force_interpreted_round_trips(self):
        expr = Comparison(">=", ColumnRef(0, SqlType.INT), Literal(2))
        with force_interpreted():
            shim = compile_expression_columnar(expr)
        assert shim([[3, 1]], 2) == [True, False]


# ---------------------------------------------------------------------------
# Zone maps and pruned scans
# ---------------------------------------------------------------------------

class TestZoneMapPruning:
    def test_extract_scan_bounds(self):
        predicate = BooleanOp("and", (
            Comparison(">=", ColumnRef(2, SqlType.INT), Literal(5)),
            Comparison("<", Literal(100), ColumnRef(0, SqlType.INT)),
            IsNull(ColumnRef(1, SqlType.TEXT)),
        ))
        assert extract_scan_bounds(predicate) == [
            ("cmp", 2, ">=", 5), ("cmp", 0, ">", 100), ("null", 1, False)]

    def test_any_unsafe_conjunct_disables_pruning_entirely(self):
        # A conjunct that could raise on skipped rows (col-vs-col,
        # arithmetic, LIKE...) must disable pruning for the whole
        # predicate, not just be skipped: the interpreter would evaluate
        # it on rows another bound excludes.
        unsafe = BooleanOp("and", (
            Comparison(">", ColumnRef(0, SqlType.INT), Literal(100)),
            Comparison("=", Arithmetic("%", Literal(1),
                                       ColumnRef(2, SqlType.INT)),
                       Literal(0)),  # raises on val == 0
        ))
        assert extract_scan_bounds(unsafe) == []
        col_vs_col = BooleanOp("and", (
            Comparison(">", ColumnRef(0, SqlType.INT), Literal(100)),
            Comparison("=", ColumnRef(0, SqlType.INT),
                       ColumnRef(2, SqlType.INT)),
        ))
        assert extract_scan_bounds(col_vs_col) == []

    def test_raising_predicate_errors_identically_with_storage(self):
        # End-to-end: a filter whose second conjunct divides by zero must
        # raise even though the first conjunct's bound excludes every
        # partition — pruning may never swallow runtime errors.
        db = Database()
        db.create_warehouse("wh")
        db.execute("CREATE TABLE src (id int, grp text, val int)")
        db.execute("INSERT INTO src VALUES (1, 'a', 0), (2, 'b', 5)")
        with pytest.raises(Exception, match="division by zero"):
            db.query("SELECT id FROM src WHERE 1 % val = 0 AND id > 100")

    def test_pruned_relation_skips_partitions(self):
        table = make_table(partition_rows=2)
        insert(table, [(i, f"g{i}", i * 10) for i in range(8)], wall=10)
        pruned = table.relation_pruned(None, [("cmp", 2, ">=", 60)])
        full = table.relation()
        assert pruned.rows == [row for row in full.rows if row[2] >= 60]
        # Partitions hold vals (0,10), (20,30), (40,50), (60,70): only the
        # last survives the bound.
        assert len(pruned) == 2

    def test_unpruned_scan_serves_cached_relation(self):
        table = make_table(partition_rows=2)
        insert(table, [(i, f"g{i}", i) for i in range(8)], wall=10)
        full = table.relation()
        # Bound matches every partition: must not rebuild the relation.
        assert table.relation_pruned(None, [("cmp", 2, ">=", 0)]) is full

    def test_pruning_preserves_refresh_results(self):
        db = Database()
        db.create_warehouse("wh")
        db.execute("CREATE TABLE src (id int, grp text, val int)")
        db.execute("INSERT INTO src VALUES " + ", ".join(
            f"({i}, 'g{i % 3}', {i})" for i in range(50)))
        db.create_dynamic_table(
            "filtered", "SELECT id, val FROM src WHERE val >= 40",
            "1 minute", "wh")
        assert sorted(db.query("SELECT * FROM filtered").rows) == [
            (i, i) for i in range(40, 50)]

    def test_is_null_never_prunes_partitions_holding_nulls(self):
        # Regression: has_null must stay accurate even when the column's
        # kind degrades to "other" (NULL next to a VARIANT/bool value), or
        # IS NULL filters silently lose their NULL rows to pruning.
        table = make_table(partition_rows=4)
        table.apply(StagedWrite(inserts=columns_of([(None, "a", None),
                                                    (1, "b", {"k": 1})])),
                    HlcTimestamp(10))
        kept = table.relation_pruned(None, [("null", 0, False)])
        assert (None, "a", None) in kept.rows
        # IS NOT NULL over an all-NULL column still prunes.
        nulls = make_table(partition_rows=4)
        insert(nulls, [(None, None, None)] * 2, wall=10)
        assert len(nulls.relation_pruned(None, [("null", 0, True)])) == 0

    def test_all_null_columns_prune_but_mixed_do_not(self):
        table = make_table(partition_rows=4)
        insert(table, [(None, None, None)] * 3, wall=10)
        assert len(table.relation_pruned(None, [("cmp", 2, ">", 0)])) == 0
        mixed = make_table(partition_rows=4)
        insert(mixed, [(1, "a", "oops"), (2, "b", 3)], wall=10)
        # Mixed-kind column: never pruned, so runtime type errors surface.
        assert len(mixed.relation_pruned(None, [("cmp", 2, ">", 0)])) == 2


# ---------------------------------------------------------------------------
# LIMIT
# ---------------------------------------------------------------------------

class TestLimit:
    def _values(self, count):
        rows = [(i, "g", i) for i in range(count)]
        return lp.Values(ITEMS, tuple(zip(*rows)), count)

    def test_limit_truncates(self):
        plan = lp.Limit(self._values(10), 3)
        result = evaluate(plan, DictResolver({}))
        assert len(result) == 3

    def test_limit_zero(self):
        plan = lp.Limit(self._values(4), 0)
        assert len(evaluate(plan, DictResolver({}))) == 0

    def test_negative_limit_rejected(self):
        plan = lp.Limit(self._values(4), -1)
        with pytest.raises(UserError):
            evaluate(plan, DictResolver({}))


# ---------------------------------------------------------------------------
# Storage: relation cache, version access, HLC resolution
# ---------------------------------------------------------------------------

class TestStorageFixes:
    def test_relation_cache_is_bounded(self):
        table = make_table()
        for wall in range(10, 10 + RELATION_CACHE_VERSIONS * 3):
            insert(table, [(wall, "x", wall)], wall=wall)
            table.relation()  # materialize every version once
        assert len(table._relation_cache) <= RELATION_CACHE_VERSIONS

    def test_relation_cache_still_caches(self):
        table = make_table()
        insert(table, [(1, "x", 2)], wall=10)
        assert table.relation() is table.relation()

    def test_version_accessor_matches_versions_list(self):
        table = make_table()
        insert(table, [(1, "x", 2)], wall=10)
        insert(table, [(2, "y", 3)], wall=20)
        assert table.version_count == 3
        for index, version in enumerate(table.versions):
            assert table.version(index) is version

    def test_version_at_discriminates_hlc_ties(self):
        table = make_table()
        first = insert(table, [(1, "x", 2)], wall=10)
        # Two commits sharing wall=20, ordered by the logical component.
        second = table.apply(StagedWrite(inserts=columns_of([(2, "y", 3)])),
                             HlcTimestamp(20, 0))
        third = table.apply(StagedWrite(inserts=columns_of([(3, "z", 4)])),
                            HlcTimestamp(20, 1))
        # A bare wall timestamp sees every commit at that wall.
        assert table.version_at(20) is third
        # A full HLC timestamp resolves between the tied commits.
        assert table.version_at(HlcTimestamp(20, 0)) is second
        assert table.version_at(HlcTimestamp(20, 1)) is third
        assert table.version_at(HlcTimestamp(19, 5)) is first
        with pytest.raises(VersionNotFound):
            table.version_at(HlcTimestamp(-1, 0))


# ---------------------------------------------------------------------------
# Change queries: pruned diffs
# ---------------------------------------------------------------------------

class TestChangesPruning:
    def test_data_equivalent_interval_skips_reading_partitions(self, monkeypatch):
        table = make_table(partition_rows=2)
        old = insert(table, [(i, "x", i) for i in range(6)], wall=10)
        new = table.recluster(HlcTimestamp(20))

        def boom(partition_id):
            raise AssertionError("partition read during data-equivalent skip")

        monkeypatch.setattr(table, "partition", boom)
        monkeypatch.setattr(table, "partitions_of", boom)
        assert len(changes_between(table, old, new)) == 0

    def test_mixed_interval_still_diffs(self):
        table = make_table(partition_rows=2)
        old = insert(table, [(i, "x", i) for i in range(4)], wall=10)
        table.recluster(HlcTimestamp(20))
        new = insert(table, [(99, "y", 99)], wall=30)
        changes = changes_between(table, old, new)
        assert [c.row for c in inserts(changes)] == [(99, "y", 99)]
        assert not deletes(changes)


# ---------------------------------------------------------------------------
# Refresh engine: compiled-plan cache
# ---------------------------------------------------------------------------

class TestPlanCache:
    @pytest.fixture
    def db(self):
        database = Database()
        database.create_warehouse("wh")
        database.execute("CREATE TABLE src (id int, grp text, val int)")
        database.execute("INSERT INTO src VALUES (1, 'a', 10)")
        return database

    def test_plan_reused_across_refreshes(self, db):
        dt = db.create_dynamic_table(
            "d", "SELECT id, val FROM src WHERE val > 0", "1 minute", "wh")
        engine = db.engine
        first = engine.build_plan(dt)
        assert engine.build_plan(dt) is first

    def test_udf_registration_invalidates_plan_cache(self, db):
        db.registry.register_udf("scale", lambda x: x * 2, SqlType.INT)
        dt = db.create_dynamic_table(
            "u", "SELECT id, scale(val) d FROM src", "1 minute", "wh")
        engine = db.engine
        first = engine.build_plan(dt)
        # Re-registering rebinds the implementation; the cached plan holds
        # the old ScalarFunction and must be invalidated.
        db.registry.register_udf("scale", lambda x: x * 10, SqlType.INT)
        assert engine.build_plan(dt) is not first
        # An incremental refresh over a new delta row must apply the new
        # implementation (existing rows are not recomputed).
        db.execute("INSERT INTO src VALUES (2, 'b', 3)")
        db.refresh_dynamic_table("u")
        assert sorted(db.query("SELECT * FROM u").rows) == [(1, 20), (2, 30)]

    def test_ddl_invalidates_plan_cache(self, db):
        dt = db.create_dynamic_table(
            "d", "SELECT id, val FROM src WHERE val > 0", "1 minute", "wh")
        engine = db.engine
        first = engine.build_plan(dt)
        db.execute("CREATE TABLE other (x int)")  # any DDL bumps the epoch
        assert engine.build_plan(dt) is not first
        # Refreshes keep converging after invalidation.
        db.execute("INSERT INTO src VALUES (2, 'b', 7)")
        db.refresh_dynamic_table("d")
        assert sorted(db.query("SELECT * FROM d").rows) == [(1, 10), (2, 7)]
