"""Tests for stateful incremental aggregation: the accumulator protocol
(:mod:`repro.engine.aggregates`), the per-DT state store lifecycle
(:mod:`repro.ivm.aggstate`), and the refresh engine's state management —
lazy initialization, interval-continuity self-healing, invalidation on
FULL/REINITIALIZE, transaction/savepoint interaction, and the
``force_stateless`` reference path."""

import pytest

from repro import Database
from repro.errors import UserError
from repro.core.dynamic_table import RefreshAction
from repro.engine.aggregates import (AvgAccumulator, CountIfAccumulator,
                                     CountStarAccumulator,
                                     DistinctAccumulator, ExtremeAccumulator,
                                     RetractionError, SumAccumulator,
                                     make_accumulator, retractable_call)
from repro.engine.relation import Relation
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.ivm.aggstate import (AggStateStore, force_stateless,
                                stateful_aggregate_supported)
from repro.ivm.differentiator import DictDeltaSource, differentiate
from repro.plan import logical as lp
from repro.plan.builder import DictSchemaProvider, build_plan
from repro.sql.parser import parse_query
from repro.util.timeutil import MINUTE

from deltas import delta_of

# ---------------------------------------------------------------------------
# Accumulators
# ---------------------------------------------------------------------------


class TestAccumulators:
    def test_count_star_counts_nulls(self):
        acc = CountStarAccumulator()
        acc.insert_arrays([1, None, 3])
        assert acc.finalize() == 3
        acc.retract(None)
        assert acc.finalize() == 2

    def test_sum_null_at_zero_rows(self):
        acc = SumAccumulator()
        acc.insert(5)
        acc.insert(None)  # NULLs do not count
        acc.insert(7)
        assert acc.finalize() == 12
        acc.retract_arrays([5, 7])
        assert acc.finalize() is None  # all-NULL group sums to NULL

    def test_sum_retract_below_zero_rows_raises(self):
        acc = SumAccumulator()
        acc.insert(5)
        with pytest.raises(RetractionError):
            acc.retract_arrays([5, 5])

    def test_avg_exact_from_sum_and_count(self):
        acc = AvgAccumulator()
        acc.insert_arrays([10, 20, None, 40])
        assert acc.finalize() == 70 / 3

    def test_count_if_counts_only_true(self):
        acc = CountIfAccumulator()
        acc.insert_arrays([True, False, None, True])
        assert acc.finalize() == 2
        acc.retract(True)
        assert acc.finalize() == 1

    def test_extreme_eviction_rescans_remaining_values(self):
        acc = ExtremeAccumulator(want_max=True)
        acc.insert_arrays([3, 9, 9, 5])
        assert acc.finalize() == 9
        acc.retract(9)           # one copy left
        assert acc.finalize() == 9
        acc.retract(9)           # extremum evicted: rescan finds 5
        assert acc.finalize() == 5
        acc.retract_arrays([3, 5])
        assert acc.finalize() is None

    def test_extreme_retract_absent_value_raises(self):
        acc = ExtremeAccumulator(want_max=False)
        acc.insert(4)
        with pytest.raises(RetractionError):
            acc.retract(99)

    def test_distinct_accumulator_counts_values_not_rows(self):
        acc = DistinctAccumulator("count")
        acc.insert_arrays([7, 7, 8, None])
        assert acc.finalize() == 2
        acc.retract(7)           # one copy of 7 remains
        assert acc.finalize() == 2
        acc.retract(7)
        assert acc.finalize() == 1

    def test_distinct_sum_on_transitions_only(self):
        acc = DistinctAccumulator("sum")
        acc.insert_arrays([5, 5, 10])
        assert acc.finalize() == 15
        acc.retract(5)
        assert acc.finalize() == 15  # a copy of 5 is still present
        acc.retract(5)
        assert acc.finalize() == 10

    def test_distinct_count_over_non_summable_values(self):
        """Regression: count(distinct x) must not maintain a numeric
        total, so TEXT (and other non-summable) values work."""
        acc = DistinctAccumulator("count")
        acc.insert_arrays(["red", "red", "blue", None])
        assert acc.finalize() == 2
        acc.retract("red")
        acc.retract("red")
        assert acc.finalize() == 1


INT_FLOAT = DictSchemaProvider({
    "t": schema_of(("g", SqlType.TEXT), ("i", SqlType.INT),
                   ("f", SqlType.FLOAT), table="t")})


def calls_of(sql) -> list[lp.AggregateCall]:
    plan = build_plan(parse_query(sql), INT_FLOAT)
    agg = next(node for node in plan.walk()
               if isinstance(node, lp.Aggregate))
    return list(agg.aggregates)


class TestRetractability:
    def test_exact_shapes_are_retractable(self):
        calls = calls_of("SELECT g, count(*) a, count(i) b, sum(i) c, "
                         "avg(i) d, min(i) e, max(i) f2, "
                         "count_if(i > 3) g2, count(distinct i) h, "
                         "sum(distinct i) k FROM t GROUP BY g")
        assert all(retractable_call(call) for call in calls)
        for call in calls:
            make_accumulator(call)  # every shape has a factory product

    def test_order_dependent_functions_are_not(self):
        calls = calls_of("SELECT g, median(i) a, listagg(g) b, stddev(i) c,"
                         " any_value(i) d FROM t GROUP BY g")
        assert not any(retractable_call(call) for call in calls)

    def test_float_arithmetic_is_not_retractable(self):
        sum_f, min_f, count_f = calls_of(
            "SELECT g, sum(f) a, min(f) b, count(f) c FROM t GROUP BY g")
        assert not retractable_call(sum_f)   # running float sums drift
        assert not retractable_call(min_f)   # NaN comparisons are ordered
        assert retractable_call(count_f)     # NULL-ness is exact

    def test_unsupported_call_routes_node_to_recompute(self):
        plan = build_plan(parse_query(
            "SELECT g, median(i) m FROM t GROUP BY g"), INT_FLOAT)
        agg = next(node for node in plan.walk()
                   if isinstance(node, lp.Aggregate))
        supported, reason = stateful_aggregate_supported(agg)
        assert not supported and "median" in reason


# ---------------------------------------------------------------------------
# Store lifecycle (unit level)
# ---------------------------------------------------------------------------

ITEMS = schema_of(("id", SqlType.INT), ("grp", SqlType.TEXT),
                  ("val", SqlType.INT), table="items")
PROVIDER = DictSchemaProvider({"items": ITEMS})
AGG_PLAN = build_plan(parse_query(
    "SELECT grp, count(*) n, sum(val) s, min(val) lo, max(val) hi "
    "FROM items GROUP BY grp"), PROVIDER)

BASE = [("i0", (1, "a", 10)), ("i1", (2, "a", 20)), ("i2", (3, "b", 30))]


def rel(pairs):
    return Relation(ITEMS, [row for __, row in pairs],
                    [row_id for row_id, __ in pairs])


def source_for(old, new):
    return DictDeltaSource({"items": rel(old)}, {"items": rel(new)},
                           {"items": delta_of(old, new)})


def canon(changes):
    """Order-independent canonical form of a change set."""
    return sorted((change.action.value, change.row_id, change.row)
                  for change in changes)


class TestStoreLifecycle:
    def test_commit_advances_token_and_keeps_state(self):
        store = AggStateStore()
        store.begin_refresh(("fp",), 0)
        differentiate(AGG_PLAN, source_for(BASE, BASE[:2]), agg_state=store)
        store.commit_refresh(1)
        assert store.advanced_to == 1
        assert store.node_count == 1
        assert store.invalidations == []

    def test_uncommitted_refresh_resets_on_next_begin(self):
        store = AggStateStore()
        store.begin_refresh(("fp",), 0)
        differentiate(AGG_PLAN, source_for(BASE, BASE[:2]), agg_state=store)
        # No commit_refresh: the merge failed. The partial fold must not
        # survive into the next interval.
        store.begin_refresh(("fp",), 0)
        assert store.node_count == 0
        assert any("did not commit" in reason
                   for reason in store.invalidations)

    def test_fingerprint_change_resets(self):
        store = AggStateStore()
        store.begin_refresh(("fp", 1), 0)
        differentiate(AGG_PLAN, source_for(BASE, BASE[:2]), agg_state=store)
        store.commit_refresh(1)
        store.begin_refresh(("fp", 2), 1)  # DDL epoch moved
        assert store.node_count == 0
        assert any("plan changed" in reason
                   for reason in store.invalidations)

    def test_out_of_order_interval_resets(self):
        """Regression: an interval whose old endpoint is not the version
        the state was advanced to (overlapping or replayed refresh) must
        reinitialize, not fold into mismatched accumulators."""
        store = AggStateStore()
        step1 = BASE + [("i3", (4, "b", 40))]
        store.begin_refresh(("fp",), 0)
        differentiate(AGG_PLAN, source_for(BASE, step1), agg_state=store)
        store.commit_refresh(1)

        # Replay the same interval (old token 0, but state is at 1).
        store.begin_refresh(("fp",), 0)
        changes, stats = differentiate(AGG_PLAN, source_for(BASE, step1),
                                       agg_state=store)
        store.commit_refresh(1)
        assert any("out-of-order" in reason
                   for reason in store.invalidations)
        # The reinitialized fold is still correct for the replayed interval.
        assert stats.agg_stateful_folds == 1
        with force_stateless():
            reference, __ = differentiate(AGG_PLAN, source_for(BASE, step1))
        assert canon(changes) == canon(reference)

    def test_no_data_advances_clean_token_only(self):
        store = AggStateStore()
        store.begin_refresh(("fp",), 0)
        differentiate(AGG_PLAN, source_for(BASE, BASE[:2]), agg_state=store)
        store.commit_refresh(1)
        store.note_no_data(2)
        assert store.advanced_to == 2
        store.begin_refresh(("fp",), 2)  # continuity holds after NO_DATA
        assert store.node_count == 1

    def test_quiet_node_does_not_shift_handles(self):
        """Regression: a node whose child delta is empty one refresh must
        still claim its state handle, or every later aggregate-class node
        would reclaim the wrong node's accumulators (encounter-order
        keying). Two GROUP BY branches over different tables; the second
        refresh touches only the second table."""
        two_tables = DictSchemaProvider({"items": ITEMS,
                                         "items2": ITEMS.requalified("items2")})
        plan = build_plan(parse_query(
            "SELECT grp, count(*) n FROM items GROUP BY grp "
            "UNION ALL SELECT grp, sum(val) s FROM items2 GROUP BY grp"),
            two_tables)
        other = [("j0", (7, "k", 21))]

        def two_source(old1, new1, old2, new2):
            return DictDeltaSource(
                {"items": rel(old1), "items2": rel(old2)},
                {"items": rel(new1), "items2": rel(new2)},
                {"items": delta_of(old1, new1),
                 "items2": delta_of(old2, new2)})

        store = AggStateStore()
        # Refresh 1: both tables change (both nodes fold + initialize).
        step1 = BASE + [("i3", (4, "k", 1))]
        other1 = other + [("j1", (8, "k", 12))]
        store.begin_refresh(("fp",), 0)
        differentiate(plan, two_source(BASE, step1, other, other1),
                      agg_state=store)
        store.commit_refresh(1)

        # Refresh 2: only items2 changes; the count node's delta is empty.
        other2 = other1 + [("j2", (9, "k", 100))]
        store.begin_refresh(("fp",), 1)
        changes, stats = differentiate(
            plan, two_source(step1, step1, other1, other2), agg_state=store)
        store.commit_refresh(2)
        assert stats.agg_stateful_folds == 1  # only the sum node folded
        assert store.invalidations == []
        with force_stateless():
            reference, __ = differentiate(
                plan, two_source(step1, step1, other1, other2))
        assert canon(changes) == canon(reference)

    def test_fold_anomaly_invalidates_and_falls_back(self):
        """A retraction the state never saw (RowIdIntegrityError-class
        corruption) drops the store and recomputes — same answer, no
        silent accumulator corruption."""
        store = AggStateStore()
        step0 = BASE + [("i3", (4, "b", 40))]
        store.begin_refresh(("fp",), 0)
        differentiate(AGG_PLAN, source_for(BASE, step0), agg_state=store)
        store.commit_refresh(1)

        # Sabotage: forget every group behind the store's back.
        agg_node = next(node for node in AGG_PLAN.walk()
                        if isinstance(node, lp.Aggregate))
        node = store.node_state("Aggregate", 0, agg_node)
        node.groups.clear()

        step = BASE[1:]  # deletes i0 → retracts into a missing group
        store.begin_refresh(("fp",), 1)
        changes, stats = differentiate(AGG_PLAN, source_for(BASE, step),
                                       agg_state=store)
        assert stats.agg_recomputes == 1
        assert stats.agg_stateful_folds == 0
        assert any("AggStateInconsistency" in reason
                   for reason in store.invalidations)
        with force_stateless():
            reference, __ = differentiate(AGG_PLAN, source_for(BASE, step))
        assert canon(changes) == canon(reference)


# ---------------------------------------------------------------------------
# Refresh-engine integration
# ---------------------------------------------------------------------------


@pytest.fixture
def db():
    database = Database()
    database.create_warehouse("wh")
    database.execute("CREATE TABLE src (id int, grp text, val int)")
    database.execute(
        "INSERT INTO src VALUES (1, 'a', 10), (2, 'b', 20), (3, 'a', 30)")
    return database


def make_dt(db, name="d", sql="SELECT grp, count(*) n, sum(val) s, "
                              "min(val) lo, max(val) hi FROM src GROUP BY grp",
            **kwargs):
    return db.create_dynamic_table(name, sql, "1 minute", "wh", **kwargs)


class TestRefreshIntegration:
    def test_lazy_init_then_pure_fold(self, db):
        """The first stateful refresh pays one endpoint scan to build the
        accumulators; later refreshes fold the delta with no endpoint
        evaluation at all."""
        dt = make_dt(db)
        db.execute("INSERT INTO src VALUES (4, 'a', 5)")
        db.refresh_dynamic_table("d")
        first = dt.refresh_history[-1]
        assert first.action == RefreshAction.INCREMENTAL
        assert first.ivm_stats.agg_stateful_folds == 1
        assert first.ivm_stats.endpoint_evals == 1  # the lazy init scan

        db.execute("INSERT INTO src VALUES (5, 'b', 50)")
        db.refresh_dynamic_table("d")
        second = dt.refresh_history[-1]
        assert second.ivm_stats.agg_stateful_folds == 1
        assert second.ivm_stats.endpoint_evals == 0  # pure O(|delta|) fold
        assert db.check_dvs("d")
        assert sorted(db.query("SELECT * FROM d").rows) == [
            ("a", 3, 45, 5, 30), ("b", 2, 70, 20, 50)]

    def test_extremum_deletion_and_group_vanish(self, db):
        dt = make_dt(db)
        db.execute("DELETE FROM src WHERE val = 30")   # max of group a
        db.refresh_dynamic_table("d")
        assert db.check_dvs("d")
        db.execute("DELETE FROM src WHERE grp = 'b'")  # group vanishes
        db.refresh_dynamic_table("d")
        assert dt.refresh_history[-1].ivm_stats.agg_stateful_folds == 1
        assert db.check_dvs("d")
        assert sorted(db.query("SELECT * FROM d").rows) == [
            ("a", 1, 10, 10, 10)]

    def test_scalar_aggregate_end_to_end(self, db):
        """CREATE DYNAMIC TABLE ... SELECT COUNT(*)/SUM(x) works without
        FULL mode, through empty-input transitions."""
        dt = make_dt(db, name="s",
                     sql="SELECT count(*) n, sum(val) s FROM src")
        assert dt.effective_refresh_mode.value == "incremental"
        assert db.query("SELECT * FROM s").rows == [(3, 60)]

        db.execute("INSERT INTO src VALUES (4, 'c', 40)")
        db.refresh_dynamic_table("s")
        assert dt.refresh_history[-1].action == RefreshAction.INCREMENTAL
        assert dt.refresh_history[-1].ivm_stats.agg_stateful_folds == 1
        assert db.query("SELECT * FROM s").rows == [(4, 100)]

        db.execute("DELETE FROM src WHERE id > 0")  # empty input: one row
        db.refresh_dynamic_table("s")
        assert db.query("SELECT * FROM s").rows == [(0, None)]
        assert db.check_dvs("s")

    def test_count_distinct_text_end_to_end(self, db):
        """Regression: count(distinct <TEXT column>) takes the stateful
        path without trying to sum strings."""
        dt = make_dt(db, name="cd",
                     sql="SELECT count(distinct grp) dg FROM src")
        assert db.query("SELECT * FROM cd").rows == [(2,)]
        db.execute("INSERT INTO src VALUES (4, 'c', 40)")
        db.refresh_dynamic_table("cd")
        assert dt.refresh_history[-1].ivm_stats.agg_stateful_folds == 1
        assert db.query("SELECT * FROM cd").rows == [(3,)]
        db.execute("DELETE FROM src WHERE grp = 'c'")
        db.refresh_dynamic_table("cd")
        assert db.query("SELECT * FROM cd").rows == [(2,)]
        assert db.check_dvs("cd")

    def test_full_mode_dt_keeps_no_state(self, db):
        dt = make_dt(db, name="f", refresh_mode="full")
        db.execute("INSERT INTO src VALUES (4, 'a', 5)")
        db.refresh_dynamic_table("f")
        assert dt.refresh_history[-1].action == RefreshAction.FULL
        assert dt.agg_state is None
        assert db.check_dvs("f")

    def test_reinitialize_invalidates_state(self, db):
        dt = make_dt(db)
        db.execute("INSERT INTO src VALUES (4, 'a', 5)")
        db.refresh_dynamic_table("d")
        assert dt.agg_state is not None and dt.agg_state.node_count == 1

        # Replacing the upstream table forces REINITIALIZE; carried
        # accumulators describe the dropped table and must go.
        db.execute("CREATE OR REPLACE TABLE src (id int, grp text, val int)")
        db.execute("INSERT INTO src VALUES (9, 'z', 90)")
        db.refresh_dynamic_table("d")
        assert dt.refresh_history[-1].action == RefreshAction.REINITIALIZE
        assert dt.agg_state.node_count == 0
        assert any("reinitialize" in reason
                   for reason in dt.agg_state.invalidations)

        # And the next incremental refresh lazily rebuilds and is correct.
        db.execute("INSERT INTO src VALUES (10, 'z', 10)")
        db.refresh_dynamic_table("d")
        assert dt.refresh_history[-1].ivm_stats.agg_stateful_folds == 1
        assert db.check_dvs("d")

    def test_out_of_order_interval_self_heals_in_engine(self, db):
        dt = make_dt(db)
        db.execute("INSERT INTO src VALUES (4, 'a', 5)")
        db.refresh_dynamic_table("d")
        # Simulate a state store that drifted from the DT's frontier
        # (e.g. restored from elsewhere): the next refresh must detect the
        # token mismatch and reinitialize rather than fold.
        dt.agg_state.advanced_to = -12345
        db.execute("INSERT INTO src VALUES (5, 'b', 50)")
        db.refresh_dynamic_table("d")
        assert any("out-of-order" in reason
                   for reason in dt.agg_state.invalidations)
        assert db.check_dvs("d")
        assert sorted(db.query("SELECT * FROM d").rows) == [
            ("a", 3, 45, 5, 30), ("b", 2, 70, 20, 50)]

    def test_savepoint_rollback_interaction(self, db):
        """Rows staged then rolled back to a savepoint never reach the
        change stream, so the fold sees only the committed delta."""
        dt = make_dt(db)
        session = db.session()
        session.begin()
        session.execute("INSERT INTO src VALUES (6, 'a', 60)")
        session.savepoint("sp")
        session.execute("INSERT INTO src VALUES (7, 'a', 700)")
        session.rollback_to("sp")
        session.commit()
        db.refresh_dynamic_table("d")
        assert dt.refresh_history[-1].ivm_stats.agg_stateful_folds == 1
        assert db.check_dvs("d")
        assert sorted(db.query("SELECT * FROM d").rows) == [
            ("a", 3, 100, 10, 60), ("b", 1, 20, 20, 20)]

    def test_failed_refresh_drops_partial_fold(self, db):
        """A refresh that errors after (possibly partial) folding must not
        leave accumulators describing an interval that never committed."""
        dt = make_dt(db)
        db.execute("INSERT INTO src VALUES (4, 'a', 5)")
        db.refresh_dynamic_table("d")
        assert dt.agg_state.node_count == 1

        # Fail the next refresh: drop the source so resolution errors.
        db.execute("DROP TABLE src")
        db.clock.advance(MINUTE)
        with pytest.raises(UserError):
            db.refresh_dynamic_table("d")
        assert dt.refresh_history[-1].error is not None

        db.execute("UNDROP TABLE src")
        db.execute("INSERT INTO src VALUES (5, 'b', 50)")
        db.refresh_dynamic_table("d")
        assert db.check_dvs("d")

    def test_force_stateless_is_reference_and_self_heals(self, db):
        dt = make_dt(db)
        db.execute("INSERT INTO src VALUES (4, 'a', 5)")
        with force_stateless():
            db.refresh_dynamic_table("d")
        record = dt.refresh_history[-1]
        assert record.ivm_stats.agg_stateful_folds == 0
        assert record.ivm_stats.agg_recomputes == 1
        assert db.check_dvs("d")

        # Back to stateful: the store must not trust pre-ablation state.
        db.execute("INSERT INTO src VALUES (5, 'b', 50)")
        db.refresh_dynamic_table("d")
        assert dt.refresh_history[-1].ivm_stats.agg_stateful_folds == 1
        assert db.check_dvs("d")

    def test_explain_reports_refresh_strategy(self, db):
        explain = db.explain(
            "SELECT grp, count(*) n FROM src GROUP BY grp")
        assert "stateful" in explain
        explain = db.explain(
            "SELECT grp, median(val) m FROM src GROUP BY grp")
        assert "recompute" in explain and "median" in explain
