"""Tests for the plan optimizer: semantics-preserving and id-preserving."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.executor import evaluate
from repro.engine.relation import DictResolver, Relation
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.ivm.changes import ChangeSet

from deltas import changeset
from repro.ivm.differentiator import DictDeltaSource, differentiate
from repro.plan import logical as lp
from repro.plan.builder import DictSchemaProvider, build_plan
from repro.plan.rewrite import fold_constants, optimize
from repro.engine import expressions as e
from repro.sql.parser import parse_query

ITEMS = schema_of(("id", SqlType.INT), ("grp", SqlType.TEXT),
                  ("val", SqlType.INT), table="items")
LOOKUP = schema_of(("key", SqlType.TEXT), ("label", SqlType.TEXT),
                   table="lookup")
PROVIDER = DictSchemaProvider({"items": ITEMS, "lookup": LOOKUP})


def plan_of(sql):
    return build_plan(parse_query(sql), PROVIDER)


def data():
    items = Relation(ITEMS, [(1, "a", 5), (2, "b", 9), (3, "a", 2)],
                     ["i0", "i1", "i2"])
    lookup = Relation(LOOKUP, [("a", "x"), ("b", "y")], ["l0", "l1"])
    return {"items": items, "lookup": lookup}


class TestConstantFolding:
    def test_folds_arithmetic(self):
        folded = fold_constants(e.Arithmetic("+", e.Literal(1), e.Literal(2)))
        assert folded == e.Literal(3)

    def test_preserves_column_refs(self):
        expr = e.Arithmetic("+", e.ColumnRef(0, SqlType.INT), e.Literal(2))
        assert fold_constants(expr) is expr

    def test_preserves_runtime_errors(self):
        poison = e.Arithmetic("/", e.Literal(1), e.Literal(0))
        assert fold_constants(poison) is poison

    def test_preserves_context_functions(self):
        expr = e.ContextFunction("current_timestamp")
        assert fold_constants(expr) is expr


class TestStructure:
    def test_true_filter_removed(self):
        plan = optimize(plan_of("SELECT id FROM items WHERE 1 = 1"))
        assert not any(isinstance(node, lp.Filter) for node in plan.walk())

    def test_stacked_filters_merge(self):
        inner = plan_of("SELECT id FROM items WHERE val > 1")
        outer = lp.Filter(inner, e.Comparison(
            ">", e.ColumnRef(0, SqlType.INT), e.Literal(0)))
        optimized = optimize(outer)
        # The two predicates end up in one Filter below the Project.
        filters = [node for node in optimized.walk()
                   if isinstance(node, lp.Filter)]
        assert len(filters) == 1

    def test_filter_pushed_below_project(self):
        plan = optimize(plan_of(
            "SELECT v FROM (SELECT val * 2 v FROM items) s WHERE v > 4"))
        # Filter must sit below the projection, directly over the scan.
        filter_node = next(node for node in plan.walk()
                           if isinstance(node, lp.Filter))
        assert isinstance(filter_node.child, lp.Scan)

    def test_filter_pushed_into_inner_join_sides(self):
        plan = optimize(plan_of(
            "SELECT i.id FROM items i JOIN lookup l ON i.grp = l.key "
            "WHERE i.val > 3 AND l.label = 'x'"))
        join = next(node for node in plan.walk() if isinstance(node, lp.Join))
        assert isinstance(join.left, lp.Filter)
        assert isinstance(join.right, lp.Filter)

    def test_left_join_keeps_right_filter_above(self):
        plan = optimize(plan_of(
            "SELECT i.id FROM items i LEFT JOIN lookup l ON i.grp = l.key "
            "WHERE l.label = 'x'"))
        join = next(node for node in plan.walk() if isinstance(node, lp.Join))
        assert not isinstance(join.right, lp.Filter)

    def test_filter_pushed_into_union_branches(self):
        plan = optimize(plan_of(
            "SELECT v FROM (SELECT id v FROM items UNION ALL "
            "SELECT val v FROM items) u WHERE v > 1"))
        union = next(node for node in plan.walk()
                     if isinstance(node, lp.UnionAll))
        for branch in union.inputs:
            assert any(isinstance(node, lp.Filter)
                       for node in branch.walk())

    def test_group_key_filter_pushed_below_aggregate(self):
        plan = optimize(plan_of(
            "SELECT grp, count(*) n FROM items GROUP BY grp "
            "HAVING grp != 'b'"))
        agg = next(node for node in plan.walk()
                   if isinstance(node, lp.Aggregate))
        assert isinstance(agg.child, lp.Filter)

    def test_aggregate_filter_stays_above(self):
        plan = optimize(plan_of(
            "SELECT grp, count(*) n FROM items GROUP BY grp "
            "HAVING count(*) > 1"))
        agg = next(node for node in plan.walk()
                   if isinstance(node, lp.Aggregate))
        assert not isinstance(agg.child, lp.Filter)

    def test_adjacent_projects_merge(self):
        plan = optimize(plan_of(
            "SELECT v + 1 w FROM (SELECT val * 2 v FROM items) s"))
        projects = [node for node in plan.walk()
                    if isinstance(node, lp.Project)]
        assert len(projects) == 1


QUERIES = [
    "SELECT id, val FROM items WHERE val > 3 AND grp = 'a'",
    "SELECT v FROM (SELECT val * 2 v, grp FROM items) s WHERE v > 4",
    "SELECT i.id, l.label FROM items i JOIN lookup l ON i.grp = l.key "
    "WHERE i.val > 1 AND l.label = 'x'",
    "SELECT i.id, l.label FROM items i LEFT JOIN lookup l ON i.grp = l.key "
    "WHERE i.val > 1",
    "SELECT grp, count(*) n FROM items GROUP BY grp HAVING grp != 'b'",
    "SELECT v FROM (SELECT id v FROM items UNION ALL SELECT val FROM items)"
    " u WHERE v > 2",
    "SELECT id, sum(val) over (partition by grp order by id) s FROM items"
    " WHERE val < 9",
]


class TestEquivalence:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_same_rows_and_ids(self, sql):
        plan = plan_of(sql)
        optimized = optimize(plan)
        resolver = DictResolver(data())
        original = evaluate(plan, resolver)
        rewritten = evaluate(optimized, resolver)
        assert sorted(original.pairs()) == sorted(rewritten.pairs())

    @pytest.mark.parametrize("sql", QUERIES)
    def test_same_deltas(self, sql):
        """Optimized plans must differentiate to the same net changes."""
        old_rels = data()
        new_items = Relation(
            ITEMS, [(1, "a", 5), (3, "a", 7), (4, "b", 1)],
            ["i0", "i2", "i3"])
        delta = changeset(("-", "i1", (2, "b", 9)), ("-", "i2", (3, "a", 2)),
                          ("+", "i2", (3, "a", 7)), ("+", "i3", (4, "b", 1)))
        new_rels = {"items": new_items, "lookup": old_rels["lookup"]}
        source = DictDeltaSource(old_rels, new_rels,
                                 {"items": delta, "lookup": ChangeSet()})
        plan = plan_of(sql)
        base, __ = differentiate(plan, source)
        opt, __ = differentiate(optimize(plan), source)
        canon = lambda cs: sorted((c.action.value, c.row_id, c.row)
                                  for c in cs)
        assert canon(base) == canon(opt)
