"""The rank-filter derivative: a QUALIFY rank bound restricts §5.5.1.

``QUALIFY row_number() | rank() | dense_rank() OVER (PARTITION BY ...)
<= c`` (or ``< c``, ``= c``) is a Filter over a one-call partitioned
Window. Its Filter rule takes the child delta from the window rule under
the bound (:func:`repro.ivm.rules_window.rank_bound`): only the rows
ranked within it, from the same changed partitions, with the Window's own
delta never built. That must equal — as a multiset — the two rules
applied in sequence without the bound, and every refresh must stay
INCREMENTAL and pass DVS.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import Database
from repro.core.dynamic_table import RefreshAction
from repro.core.refresh import _FrontierDeltaSource
from repro.engine.executor import filter_kernel
from repro.engine.expressions import DEFAULT_CONTEXT
from repro.engine.relation import Relation
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.ivm import rules_agg, rules_basic, rules_join  # noqa: F401
from repro.ivm.changes import ChangeSet, consolidate
from repro.ivm.differentiator import Differentiator
from repro.ivm.rules_window import rank_bound
from repro.plan import logical as lp
from repro.plan.builder import DictSchemaProvider, build_plan
from repro.sql.parser import parse_query

ITEMS = schema_of(("id", SqlType.INT), ("grp", SqlType.TEXT),
                  ("v", SqlType.INT), ("w", SqlType.INT), table="items")
PROVIDER = DictSchemaProvider({"items": ITEMS})


def _rank_filter(plan: lp.PlanNode) -> lp.Filter:
    return next(node for node in plan.walk() if isinstance(node, lp.Filter))


def _bound(sql: str):
    return rank_bound(_rank_filter(build_plan(parse_query(sql), PROVIDER)))


OVER = "OVER (PARTITION BY grp ORDER BY v DESC)"


@pytest.mark.parametrize("qualify, bound", [
    (f"row_number() {OVER} <= 3", 3),
    (f"rank() {OVER} < 3", 2),
    (f"dense_rank() {OVER} = 1", 1),
    (f"2 >= rank() {OVER}", 2),
    (f"4 > row_number() {OVER}", 3),
    (f"row_number() {OVER} <= 5 AND w > 1", 5),
    (f"w > 1 AND row_number() {OVER} <= 5 AND row_number() {OVER} < 3", 2),
    (f"row_number() {OVER} <= 0", 0),
])
def test_rank_bound_recognises_the_shape(qualify, bound):
    assert _bound(f"SELECT id FROM items QUALIFY {qualify}") == bound


@pytest.mark.parametrize("sql", [
    f"SELECT id FROM items QUALIFY row_number() {OVER} > 3",
    f"SELECT id FROM items QUALIFY row_number() {OVER} <= 3 OR w > 1",
    f"SELECT id FROM items QUALIFY row_number() {OVER} <= w",
    f"SELECT id, rank() {OVER} r FROM items "
    f"QUALIFY row_number() {OVER} <= 3",
    "SELECT id FROM items QUALIFY sum(v) OVER (PARTITION BY grp "
    "ORDER BY v) <= 3",
    "SELECT id FROM items QUALIFY row_number() OVER (ORDER BY v) <= 3",
    "SELECT id FROM items WHERE v <= 3",
])
def test_other_shapes_fall_through(sql):
    assert _bound(sql) is None


def _database(rng: random.Random) -> Database:
    db = Database()
    db.create_warehouse("wh")
    db.execute("CREATE TABLE items(id int, grp text, v int, w int)")
    db.catalog.versioned_table("items").partition_rows = 8
    db.prepare("INSERT INTO items VALUES (?, ?, ?, ?)").executemany(
        [_row(rng, row_id) for row_id in range(60)])
    return db


def _row(rng: random.Random, row_id: int) -> tuple:
    # Few values per column: ties in v, NULL partition keys and NULL
    # order keys; some groups smaller than the bound.
    return (row_id, rng.choice([None, "a", "a", "b", "c", "d"]),
            rng.choice([None, 0, 1, 1, 2, 3]), rng.randrange(3))


def _random_dml(db: Database, rng: random.Random, next_id: list) -> None:
    for __ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        low = rng.randrange(next_id[0])
        if kind == 0:
            rows = [_row(rng, next_id[0] + i)
                    for i in range(rng.randint(1, 4))]
            next_id[0] += len(rows)
            db.prepare("INSERT INTO items VALUES (?, ?, ?, ?)").executemany(
                rows)
        elif kind == 1:
            db.execute(f"UPDATE items SET v = {rng.randrange(4)} "
                       f"WHERE id >= {low} AND id < {low + 2}")
        elif kind == 2:
            db.execute(f"UPDATE items SET grp = 'b', w = w + 1 "
                       f"WHERE id = {low}")
        else:
            db.execute(f"DELETE FROM items WHERE id >= {low} "
                       f"AND id < {low + rng.choice([1, 3])}")


def _random_dt(rng: random.Random) -> str:
    function = rng.choice(["row_number", "rank", "dense_rank"])
    order = rng.choice(["v", "v DESC", "v, id", "w DESC, v"])
    # Groups hold about a dozen rows: some bounds exceed the partition.
    bound = rng.choice([f"<= {rng.randint(1, 20)}",
                        f"< {rng.randint(1, 20)}", "= 1", "= 2"])
    extra = rng.choice(["", " AND w > 0"])
    return (f"SELECT id, grp, v, w, {function}() OVER (PARTITION BY grp "
            f"ORDER BY {order}) r FROM items QUALIFY r {bound}{extra}")


def _multiset(changes: ChangeSet) -> Counter:
    return Counter((change.action, change.row_id, change.row)
                   for change in changes)


def _bounded_and_reference(db: Database, name: str):
    """Differentiate the DT's rank filter over its next refresh interval
    twice: through the Filter rule (bounded) and as the Window rule's
    consolidated delta filtered by the predicate (unbounded)."""
    engine = db.engine
    dt = db.dynamic_table(name)
    node = _rank_filter(engine.build_plan(dt))
    versioned = db.catalog.versioned_table("items")
    new = {"items": versioned.current_version}
    source = _FrontierDeltaSource(db.catalog,
                                  engine._frontier_versions(dt, new), new)
    bounded = Differentiator(source).delta(node)

    window_delta = Differentiator(source).delta(node.child)
    if window_delta:
        kept = filter_kernel(node, DEFAULT_CONTEXT)(Relation.from_columns(
            node.child.schema, [*window_delta.columns, window_delta.actions],
            window_delta.row_ids))
        *columns, actions = kept.columns
        window_delta = ChangeSet.from_columns(actions, kept.row_ids, columns)
    return bounded, consolidate(window_delta), rank_bound(node)


@pytest.mark.parametrize("seed", range(6))
def test_bounded_rule_equals_unbounded_rules(seed):
    rng = random.Random(seed)
    db = _database(rng)
    names = []
    for index in range(4):
        names.append(f"top{index}")
        db.create_dynamic_table(names[-1], _random_dt(rng), "1 minute", "wh")
    next_id = [60]
    changed = 0
    for __ in range(10):
        _random_dml(db, rng, next_id)
        for name in names:
            bounded, reference, bound = _bounded_and_reference(db, name)
            assert bound is not None
            assert _multiset(bounded) == _multiset(reference), name
            changed += bool(reference)
            record = db.refresh_dynamic_table(name)
            assert record.action is RefreshAction.INCREMENTAL, name
            assert db.check_dvs(name), name
    assert changed >= 10  # the intervals did move the top ranks


def _hot_partition(rows: int) -> Database:
    """``items`` with one ``hot`` partition of ``rows`` rows and a small
    ``cold`` one, under a top-5-per-group DT."""
    db = Database()
    db.create_warehouse("wh")
    db.execute("CREATE TABLE items(id int, grp text, v int, w int)")
    db.prepare("INSERT INTO items VALUES (?, ?, ?, ?)").executemany(
        [(row, "hot", row, 0) for row in range(rows)]
        + [(rows + row, "cold", row, 0) for row in range(20)])
    db.create_dynamic_table(
        "top", "SELECT id, grp, v FROM items QUALIFY row_number() OVER "
        "(PARTITION BY grp ORDER BY v DESC, id) <= 5", "1 minute", "wh")
    return db


def test_delta_rows_do_not_grow_with_the_partition():
    produced = []
    for rows in (250, 2_500):
        db = _hot_partition(rows)
        # One row jumps into the top five of its partition.
        db.execute("UPDATE items SET v = 1000000 WHERE id = 7")
        record = db.refresh_dynamic_table("top")
        assert record.action is RefreshAction.INCREMENTAL
        assert db.check_dvs("top")
        produced.append(record.ivm_stats.delta_rows_out)
    assert produced[0] == produced[1]
