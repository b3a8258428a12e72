"""Directed tests for the per-operator derivative rules.

Each test constructs explicit old/new snapshots plus deltas, runs
:func:`repro.ivm.differentiator.differentiate`, applies the result to the
old query output, and checks it equals the new output — plus rule-specific
structural assertions (what the delta *contains*, not just that it works).
"""

import pytest

from repro.engine.executor import evaluate
from repro.engine.relation import DictResolver, Relation
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.errors import NotIncrementalizableError
from repro.ivm.changes import Action, ChangeSet
from repro.ivm.differentiator import (DictDeltaSource, Differentiator,
                                      differentiate)
from repro.plan.builder import DictSchemaProvider, build_plan
from repro.sql.parser import parse_query

from deltas import delta_of, deletes, inserts

ITEMS = schema_of(("id", SqlType.INT), ("grp", SqlType.TEXT),
                  ("val", SqlType.INT), table="items")
LOOKUP = schema_of(("key", SqlType.TEXT), ("label", SqlType.TEXT),
                   table="lookup")
PROVIDER = DictSchemaProvider({"items": ITEMS, "lookup": LOOKUP})


def rel(schema, pairs):
    return Relation(schema, [row for __, row in pairs],
                    [row_id for row_id, __ in pairs])


def apply_changes(old: Relation, changes: ChangeSet) -> dict:
    state = dict(old.pairs())
    for change in deletes(changes):
        assert change.row_id in state, f"deleting missing {change.row_id}"
        assert state[change.row_id] == change.row
        del state[change.row_id]
    for change in inserts(changes):
        assert change.row_id not in state, f"double insert {change.row_id}"
        state[change.row_id] = change.row
    return state


def check(sql, old_rels, new_rels, deltas, strategy="direct"):
    plan = build_plan(parse_query(sql), PROVIDER)
    source = DictDeltaSource(old_rels, new_rels, deltas)
    old_out = evaluate(plan, DictResolver(old_rels))
    new_out = evaluate(plan, DictResolver(new_rels))
    changes, stats = differentiate(plan, source,
                                   outer_join_strategy=strategy)
    assert apply_changes(old_out, changes) == dict(new_out.pairs())
    return changes, stats


BASE_ITEMS = [("i0", (1, "a", 10)), ("i1", (2, "a", 20)),
              ("i2", (3, "b", 30))]


def sources_for(old_items, new_items, old_lookup=(), new_lookup=()):
    old_rels = {"items": rel(ITEMS, old_items),
                "lookup": rel(LOOKUP, old_lookup)}
    new_rels = {"items": rel(ITEMS, new_items),
                "lookup": rel(LOOKUP, new_lookup)}
    deltas = {"items": delta_of(old_items, new_items),
              "lookup": delta_of(old_lookup, new_lookup)}
    return old_rels, new_rels, deltas


class TestLinearRules:
    def test_filter_keeps_only_matching_delta(self):
        new_items = BASE_ITEMS + [("i3", (4, "b", 5)), ("i4", (5, "b", 50))]
        changes, __ = check("SELECT id FROM items WHERE val > 25",
                            *sources_for(BASE_ITEMS, new_items))
        assert sorted(c.row for c in changes) == [(5,)]

    def test_project_maps_delta(self):
        new_items = BASE_ITEMS + [("i3", (4, "c", 7))]
        changes, __ = check("SELECT id, val * 2 d FROM items",
                            *sources_for(BASE_ITEMS, new_items))
        assert [c.row for c in inserts(changes)] == [(4, 14)]
        assert inserts(changes)[0].row_id == "i3"  # id passes through

    def test_delete_flows_through_filter(self):
        new_items = BASE_ITEMS[:2]
        changes, __ = check("SELECT id FROM items WHERE val > 25",
                            *sources_for(BASE_ITEMS, new_items))
        assert [c.action for c in changes] == [Action.DELETE]

    def test_union_all_tags_branches(self):
        new_items = BASE_ITEMS + [("i3", (4, "c", 7))]
        changes, __ = check(
            "SELECT id FROM items UNION ALL SELECT val FROM items",
            *sources_for(BASE_ITEMS, new_items))
        prefixes = {c.row_id.split(":")[0] for c in changes}
        assert prefixes == {"u0", "u1"}

    def test_values_has_empty_delta(self):
        changes, __ = check("SELECT 1 v",
                            *sources_for(BASE_ITEMS, BASE_ITEMS))
        assert len(changes) == 0

    def test_sort_not_differentiable(self):
        plan = build_plan(parse_query("SELECT id FROM items ORDER BY id"),
                          PROVIDER)
        source = DictDeltaSource(*[
            {"items": rel(ITEMS, BASE_ITEMS)}] * 2,
            {"items": ChangeSet()})
        with pytest.raises(NotIncrementalizableError):
            differentiate(plan, source)


class TestInnerJoinRule:
    LOOKUP_ROWS = [("l0", ("a", "alpha")), ("l1", ("b", "beta"))]

    def test_insert_joins_against_old_right(self):
        new_items = BASE_ITEMS + [("i3", (4, "b", 40))]
        changes, __ = check(
            "SELECT i.id, l.label FROM items i JOIN lookup l ON i.grp = l.key",
            *sources_for(BASE_ITEMS, new_items,
                         self.LOOKUP_ROWS, self.LOOKUP_ROWS))
        assert [c.row for c in inserts(changes)] == [(4, "beta")]

    def test_right_delete_retracts_pairs(self):
        changes, __ = check(
            "SELECT i.id, l.label FROM items i JOIN lookup l ON i.grp = l.key",
            *sources_for(BASE_ITEMS, BASE_ITEMS,
                         self.LOOKUP_ROWS, self.LOOKUP_ROWS[1:]))
        assert sorted(c.row for c in deletes(changes)) == [
            (1, "alpha"), (2, "alpha")]

    def test_both_sides_insert_counted_once(self):
        new_items = BASE_ITEMS + [("i3", (4, "c", 40))]
        new_lookup = self.LOOKUP_ROWS + [("l2", ("c", "gamma"))]
        changes, __ = check(
            "SELECT i.id, l.label FROM items i JOIN lookup l ON i.grp = l.key",
            *sources_for(BASE_ITEMS, new_items,
                         self.LOOKUP_ROWS, new_lookup))
        assert [c.row for c in inserts(changes)] == [(4, "gamma")]

    def test_empty_delta_reads_nothing(self):
        plan = build_plan(parse_query(
            "SELECT i.id FROM items i JOIN lookup l ON i.grp = l.key"),
            PROVIDER)
        old_rels, new_rels, deltas = sources_for(
            BASE_ITEMS, BASE_ITEMS, self.LOOKUP_ROWS, self.LOOKUP_ROWS)
        differ = Differentiator(DictDeltaSource(old_rels, new_rels, deltas))
        assert len(differ.delta(plan)) == 0
        assert differ.stats.endpoint_evals == 0  # no endpoint scans at all


class TestOuterJoinRules:
    LOOKUP_ROWS = [("l0", ("a", "alpha"))]

    @pytest.mark.parametrize("strategy", ["direct", "rewrite"])
    def test_pad_appears_when_match_removed(self, strategy):
        changes, __ = check(
            "SELECT i.id, l.label FROM items i LEFT JOIN lookup l "
            "ON i.grp = l.key",
            *sources_for(BASE_ITEMS, BASE_ITEMS, self.LOOKUP_ROWS, ()),
            strategy=strategy)
        inserted = sorted(c.row for c in inserts(changes))
        assert inserted == [(1, None), (2, None)]

    @pytest.mark.parametrize("strategy", ["direct", "rewrite"])
    def test_pad_retracted_when_match_appears(self, strategy):
        new_lookup = self.LOOKUP_ROWS + [("l1", ("b", "beta"))]
        changes, __ = check(
            "SELECT i.id, l.label FROM items i LEFT JOIN lookup l "
            "ON i.grp = l.key",
            *sources_for(BASE_ITEMS, BASE_ITEMS,
                         self.LOOKUP_ROWS, new_lookup),
            strategy=strategy)
        assert (3, None) in [c.row for c in deletes(changes)]
        assert (3, "beta") in [c.row for c in inserts(changes)]

    @pytest.mark.parametrize("strategy", ["direct", "rewrite"])
    def test_full_join_both_sides(self, strategy):
        new_items = BASE_ITEMS[:2]  # drop the 'b' item
        changes, __ = check(
            "SELECT i.id, l.label FROM items i FULL JOIN lookup l "
            "ON i.grp = l.key",
            *sources_for(BASE_ITEMS, new_items, self.LOOKUP_ROWS,
                         self.LOOKUP_ROWS),
            strategy=strategy)
        assert changes  # row 3's pad must be retracted

    def test_strategies_agree(self):
        new_items = [("i0", (1, "a", 10)), ("i2", (3, "c", 30)),
                     ("i9", (9, "a", 90))]
        new_lookup = [("l0", ("a", "ALPHA")), ("l2", ("c", "gamma"))]
        args_sets = sources_for(BASE_ITEMS, new_items,
                                self.LOOKUP_ROWS, new_lookup)
        direct, __ = check(
            "SELECT i.id, l.label FROM items i FULL JOIN lookup l "
            "ON i.grp = l.key", *args_sets, strategy="direct")
        rewrite, __ = check(
            "SELECT i.id, l.label FROM items i FULL JOIN lookup l "
            "ON i.grp = l.key", *args_sets, strategy="rewrite")
        canon = lambda cs: sorted((c.action.value, c.row_id, c.row)
                                  for c in cs)
        assert canon(direct) == canon(rewrite)


class TestAggregateRule:
    def test_only_affected_group_touched(self):
        new_items = BASE_ITEMS + [("i3", (4, "a", 5))]
        changes, __ = check(
            "SELECT grp, count(*) n, sum(val) s FROM items GROUP BY grp",
            *sources_for(BASE_ITEMS, new_items))
        rows = {c.row for c in changes}
        assert rows == {("a", 2, 30), ("a", 3, 35)}  # update of group 'a'

    def test_group_disappears(self):
        new_items = BASE_ITEMS[:2]
        changes, __ = check(
            "SELECT grp, count(*) n FROM items GROUP BY grp",
            *sources_for(BASE_ITEMS, new_items))
        assert [c.row for c in deletes(changes)] == [("b", 1)]
        assert not inserts(changes)

    def test_new_group_appears(self):
        new_items = BASE_ITEMS + [("i3", (4, "z", 1))]
        changes, __ = check(
            "SELECT grp, count(*) n FROM items GROUP BY grp",
            *sources_for(BASE_ITEMS, new_items))
        assert [c.row for c in inserts(changes)] == [("z", 1)]
        assert not deletes(changes)

    def test_scalar_aggregate_differentiates(self):
        """Scalar aggregates are one implicit group (the section 3.3.2
        restriction is lifted): an insert updates the single output row."""
        new_items = BASE_ITEMS + [("i3", (4, "z", 40))]
        changes, __ = check(
            "SELECT count(*) n, sum(val) s FROM items",
            *sources_for(BASE_ITEMS, new_items))
        assert [c.row for c in deletes(changes)] == [(3, 60)]
        assert [c.row for c in inserts(changes)] == [(4, 100)]
        # Update in place: one row id, a delete+insert pair.
        assert deletes(changes)[0].row_id == inserts(changes)[0].row_id

    def test_scalar_aggregate_empty_input_keeps_row(self):
        """A scalar aggregate over empty input still yields one row
        (count 0 / NULL sum), and deltas preserve it."""
        changes, __ = check(
            "SELECT count(*) n, sum(val) s FROM items",
            *sources_for(BASE_ITEMS, []))
        assert [c.row for c in deletes(changes)] == [(3, 60)]
        assert [c.row for c in inserts(changes)] == [(0, None)]

    def test_distinct_add_duplicate_no_change(self):
        new_items = BASE_ITEMS + [("i3", (9, "a", 99))]
        changes, __ = check("SELECT DISTINCT grp FROM items",
                            *sources_for(BASE_ITEMS, new_items))
        assert len(changes) == 0

    def test_distinct_last_copy_removed(self):
        new_items = BASE_ITEMS[:2]
        changes, __ = check("SELECT DISTINCT grp FROM items",
                            *sources_for(BASE_ITEMS, new_items))
        assert [c.row for c in deletes(changes)] == [("b",)]


class TestWindowRule:
    SQL = ("SELECT id, grp, "
           "sum(val) over (partition by grp order by id) running FROM items")

    def test_only_changed_partition_rewritten(self):
        new_items = BASE_ITEMS + [("i3", (0, "a", 1))]
        changes, stats = check(self.SQL,
                               *sources_for(BASE_ITEMS, new_items))
        touched_groups = {c.row[1] for c in changes}
        assert touched_groups == {"a"}  # partition 'b' untouched

    def test_unchanged_rows_cancel(self):
        new_items = BASE_ITEMS + [("i3", (9, "a", 1))]
        changes, __ = check(self.SQL, *sources_for(BASE_ITEMS, new_items))
        # Appending id=9 at the end leaves earlier running sums intact;
        # only the new row appears.
        assert [c.row for c in inserts(changes)] == [(9, "a", 31)]
        assert not deletes(changes)

    def test_prepended_row_updates_followers(self):
        new_items = BASE_ITEMS + [("i3", (0, "a", 1))]
        changes, __ = check(self.SQL, *sources_for(BASE_ITEMS, new_items))
        inserted = sorted(c.row for c in inserts(changes))
        assert (0, "a", 1) in inserted
        assert (1, "a", 11) in inserted  # follower shifted


class TestConsolidationSkip:
    def test_append_only_plan_skips_consolidation(self):
        new_items = BASE_ITEMS + [("i3", (4, "c", 7))]
        old_rels, new_rels, __ = sources_for(BASE_ITEMS, new_items)
        deltas = {"items": delta_of(BASE_ITEMS, new_items),
                  "lookup": ChangeSet()}
        plan = build_plan(parse_query("SELECT id FROM items WHERE val > 0"),
                          PROVIDER)
        changes, stats = differentiate(
            plan, DictDeltaSource(old_rels, new_rels, deltas))
        assert stats.consolidation_skipped

    def test_aggregate_plan_never_skips(self):
        new_items = BASE_ITEMS + [("i3", (4, "c", 7))]
        old_rels, new_rels, __ = sources_for(BASE_ITEMS, new_items)
        deltas = {"items": delta_of(BASE_ITEMS, new_items),
                  "lookup": ChangeSet()}
        plan = build_plan(parse_query(
            "SELECT grp, count(*) FROM items GROUP BY grp"), PROVIDER)
        changes, stats = differentiate(
            plan, DictDeltaSource(old_rels, new_rels, deltas))
        assert not stats.consolidation_skipped

    def test_deleting_delta_disables_skip(self):
        new_items = BASE_ITEMS[:2]
        old_rels, new_rels, __ = sources_for(BASE_ITEMS, new_items)
        deltas = {"items": delta_of(BASE_ITEMS, new_items),
                  "lookup": ChangeSet()}
        plan = build_plan(parse_query("SELECT id FROM items"), PROVIDER)
        changes, stats = differentiate(
            plan, DictDeltaSource(old_rels, new_rels, deltas))
        assert not stats.consolidation_skipped


class TestStackedJoinUpdates:
    """Regression: an update crossing two stacked joins must not reorder
    into duplicate inserts (rules require consolidated input deltas)."""

    DIM2 = schema_of(("key2", SqlType.TEXT), ("tag", SqlType.TEXT),
                     table="dim2")

    def test_update_through_two_outer_joins(self):
        provider = DictSchemaProvider({
            "items": ITEMS, "lookup": LOOKUP, "dim2": self.DIM2})
        sql = ("SELECT i.id, l.label, d.tag FROM items i "
               "LEFT JOIN lookup l ON i.grp = l.key "
               "LEFT JOIN dim2 d ON i.grp = d.key2")
        plan = build_plan(parse_query(sql), provider)

        lookup_old = [("l0", ("a", "alpha"))]
        lookup_new = [("l0", ("a", "ALPHA"))]  # update, same row id
        dim2_rows = [("d0", ("a", "t1"))]
        new_items = BASE_ITEMS + [("i3", (4, "a", 40))]

        old_rels = {"items": rel(ITEMS, BASE_ITEMS),
                    "lookup": rel(LOOKUP, lookup_old),
                    "dim2": rel(self.DIM2, dim2_rows)}
        new_rels = {"items": rel(ITEMS, new_items),
                    "lookup": rel(LOOKUP, lookup_new),
                    "dim2": rel(self.DIM2, dim2_rows)}
        deltas = {"items": delta_of(BASE_ITEMS, new_items),
                  "lookup": delta_of(lookup_old, lookup_new),
                  "dim2": ChangeSet()}
        source = DictDeltaSource(old_rels, new_rels, deltas)

        for strategy in ("direct", "rewrite"):
            from repro.engine.relation import DictResolver

            old_out = evaluate(plan, DictResolver(old_rels))
            new_out = evaluate(plan, DictResolver(new_rels))
            changes, __ = differentiate(plan, source,
                                        outer_join_strategy=strategy)
            assert apply_changes(old_out, changes) == dict(new_out.pairs())
