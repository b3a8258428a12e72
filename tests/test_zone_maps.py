"""Zone maps: the one-dispatch kernel, and bounds kept across rewrites.

A column's zone map is computed with one type dispatch (the set of its
values' types) and C-level ``min`` / ``max``; a property pins it to the
per-value loop it replaced, kept here as the oracle.

A rewrite that only drops rows keeps its parent partition's zone maps
instead of recomputing them: the parent's kind, min/max and NULL flag
bound any subset of its rows. These tests check that bound is *sound* —
it never prunes a partition the recomputed stats would keep — and that a
rewrite assigning values gets fresh stats.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.engine.executor import evaluate, extract_scan_bounds
from repro.engine.expressions import (ColumnRef, Comparison, IsNull, Literal,
                                      conjoin)
from repro.engine.relation import DictResolver
from repro.engine.types import type_of_value
from repro.plan.builder import build_plan
from repro.plan.rewrite import optimize
from repro.sql.parser import parse_query
from repro.storage.partition import (ColumnStats, Partition,
                                     build_partitions, zone_maps_of_columns)
from repro.txn.manager import VersionReader

_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")


def _per_value_stats(values) -> ColumnStats:
    """The zone-map loop the one-dispatch kernel replaced: the oracle."""
    kind = None
    low = high = None
    has_null = False
    other = False
    for value in values:
        if value is None:
            has_null = True
            continue
        if other:
            continue
        if isinstance(value, bool):
            other = True
            continue
        if isinstance(value, (int, float)):
            if isinstance(value, float) and value != value:  # NaN
                other = True
                continue
            value_kind = "num"
        elif isinstance(value, str):
            value_kind = "str"
        else:
            other = True
            continue
        if kind is None:
            kind = value_kind
            low = high = value
        elif kind != value_kind:
            other = True
        else:
            if value < low:
                low = value
            if value > high:
                high = value
    if other:
        return ColumnStats("other", has_null=has_null)
    return ColumnStats(kind, low, high, has_null)


_CELLS = {
    "int": st.one_of(st.integers(-10, 10),
                     st.sampled_from([2 ** 53, 2 ** 53 + 1, -2 ** 63])),
    "float": st.one_of(st.floats(allow_nan=False),
                       st.sampled_from([-0.0, 0.0, 1.0])),
    "nan": st.just(math.nan),
    "bool": st.booleans(),
    "text": st.text(max_size=3),
    "variant": st.one_of(st.dictionaries(st.just("k"), st.integers()),
                         st.lists(st.integers(), max_size=2)),
}


@st.composite
def _columns(draw):
    """A column of one, two or three value kinds, with or without NULLs."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=3, unique=True))
    cells = st.one_of(*(_CELLS[kind] for kind in kinds))
    if draw(st.booleans()):
        cells = st.one_of(st.none(), cells)
    return draw(st.lists(cells, max_size=12))


@settings(max_examples=400, deadline=None)
@given(_columns())
def test_kernel_matches_the_per_value_loop(column):
    stats = zone_maps_of_columns([column])[0]
    expected = _per_value_stats(column)
    assert stats == expected
    # Equal is not enough for the bounds: 0 == 0.0 == -0.0, and the
    # kernel must pick the same value object's type and sign.
    assert repr(stats.low) == repr(expected.low)
    assert repr(stats.high) == repr(expected.high)


def _value(rng: random.Random, kind: str):
    if rng.random() < 0.15:
        return None
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "float":
        return rng.choice([-2.5, 0.0, 1.5, 3.0, 4.25])
    if kind == "nan":
        return rng.choice([math.nan, 1.0, 2.0])
    if kind == "bool":
        return rng.choice([True, False])
    if kind == "text":
        return rng.choice(["a", "b", "m", "z"])
    if kind == "mixed":
        return rng.choice([1, 2.5, "b", True])
    return None  # "null": every value NULL


_KINDS = ("null", "int", "float", "nan", "bool", "text", "mixed")


def _literal(rng: random.Random):
    return rng.choice([-6, -1, 0, 1, 2, 3, 6, -2.5, 1.5, 3.0, 4.5,
                       "a", "b", "c", "n", "zz", True, math.nan])


def _predicate(rng: random.Random, width: int):
    parts = []
    for __ in range(rng.randint(1, 3)):
        index = rng.randrange(width)
        if rng.random() < 0.25:
            parts.append(IsNull(ColumnRef(index, type_of_value(None)),
                                negated=rng.random() < 0.5))
            continue
        value = _literal(rng)
        column = ColumnRef(index, type_of_value(value))
        literal = Literal(value)
        op = rng.choice(_OPS)
        parts.append(Comparison(op, column, literal) if rng.random() < 0.7
                     else Comparison(op, literal, column))
    return conjoin(parts)


@pytest.mark.parametrize("seed", range(6))
def test_parent_zone_maps_never_prune_what_fresh_ones_keep(seed):
    rng = random.Random(seed)
    checked = 0
    for __ in range(60):
        kinds = [rng.choice(_KINDS) for __ in range(rng.randint(1, 4))]
        size = rng.randint(1, 12)
        row_ids = [f"r{index}" for index in range(size)]
        parent = Partition.from_columns(
            row_ids, [[_value(rng, kind) for __ in range(size)]
                      for kind in kinds])
        deletes = {row_id for row_id in row_ids if rng.random() < 0.5}
        kept_ids, columns, zone_maps = parent.edited(deletes, {})
        assert zone_maps is parent.zone_maps
        if not kept_ids:
            continue
        (inherited,) = build_partitions(kept_ids, columns, 64, zone_maps)
        fresh = Partition.from_columns(kept_ids, columns)
        assert inherited.zone_maps is parent.zone_maps
        for __ in range(20):
            bounds = extract_scan_bounds(_predicate(rng, len(kinds)))
            if not bounds:
                continue
            checked += 1
            if fresh.might_match(bounds):
                assert inherited.might_match(bounds), (
                    kinds, parent.columns, columns, bounds)
    assert checked > 200


def test_update_recomputes_and_delete_inherits():
    db = Database()
    db.execute("CREATE TABLE t(id int, n int)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        f"({row}, {row})" for row in range(10)))
    table = db.catalog.versioned_table("t")

    db.execute("UPDATE t SET n = 50 WHERE id = 1")
    (updated,) = table.partitions_of(table.current_version)
    assert updated.zone_maps == zone_maps_of_columns(updated.columns)
    assert updated.zone_maps[1].high == 50

    db.execute("DELETE FROM t WHERE n = 50")
    (deleted,) = table.partitions_of(table.current_version)
    assert deleted.zone_maps is updated.zone_maps  # still bounds the rest
    assert deleted.zone_maps[1].high == 50


def _table_db(seed: int) -> Database:
    rng = random.Random(seed)
    db = Database()
    db.execute("CREATE TABLE t(id int, n int, x float, s text)")
    db.catalog.versioned_table("t").partition_rows = 10
    db.prepare("INSERT INTO t VALUES (?, ?, ?, ?)").executemany(
        [(row, _value(rng, "int"), _value(rng, "float"),
          _value(rng, "text")) for row in range(200)])
    return db


_WHERE = ("id >= {a} AND id < {b}", "n = {k}", "n > {k} AND x < 2.0",
          "s = 'm'", "s >= 'b' AND s < 'z'", "x IS NULL", "n IS NOT NULL",
          "x >= 1.5", "id <> {a}")


@pytest.mark.parametrize("seed", range(3))
def test_where_after_deletes_matches_unpruned_scan(seed):
    db = _table_db(seed)
    rng = random.Random(seed)
    table = db.catalog.versioned_table("t")
    for round_ in range(25):
        low = rng.randrange(200)
        db.execute(f"DELETE FROM t WHERE id >= {low} "
                   f"AND id < {low + rng.randint(1, 8)}")
        if round_ % 5 == 4:
            db.execute(f"DELETE FROM t WHERE n = {rng.randint(-5, 5)}")
        version = table.current_version
        for template in _WHERE:
            a = rng.randrange(200)
            sql = "SELECT id, n, x, s FROM t WHERE " + template.format(
                a=a, b=a + rng.randint(1, 60), k=rng.randint(-5, 5))
            plan = optimize(build_plan(parse_query(sql), db.catalog,
                                       db.registry))
            unpruned = evaluate(plan, DictResolver({"t": table.relation()}))
            pruned = evaluate(plan, VersionReader.pinned(db.catalog,
                                                         {"t": version}))
            assert pruned.row_ids == unpruned.row_ids, sql
            assert pruned.rows == unpruned.rows, sql
            assert db.query(sql).rows == unpruned.rows, sql
    # The deletes did keep (and use) inherited bounds.
    assert any(partition.zone_maps != zone_maps_of_columns(partition.columns)
               for partition in table.partitions_of(table.current_version))
