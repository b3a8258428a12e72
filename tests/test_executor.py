"""Tests for the relational executor."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.executor import evaluate
from repro.engine.relation import DictResolver, Relation
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.errors import ReproError, UserError
from repro.plan.builder import DictSchemaProvider, build_plan
from repro.plan.rewrite import optimize
from repro.sql.parser import parse_query

ORDERS = schema_of(("id", SqlType.INT), ("cust", SqlType.TEXT),
                   ("amt", SqlType.INT), table="orders")
CUSTS = schema_of(("name", SqlType.TEXT), ("region", SqlType.TEXT),
                  table="customers")
EVENTS = schema_of(("id", SqlType.INT), ("payload", SqlType.VARIANT),
                   table="events")

MEASURES = schema_of(("id", SqlType.INT), ("x", SqlType.FLOAT),
                     table="measures")

PROVIDER = DictSchemaProvider({
    "orders": ORDERS, "customers": CUSTS, "events": EVENTS,
    "measures": MEASURES})

NAN = float("nan")


def _measures(order):
    """``measures`` holding x = 1.0, 2.0, 3.0, NaN under ids 0-3, inserted
    in ``order``."""
    values = [1.0, 2.0, 3.0, NAN]
    return Relation(MEASURES, [(index, values[index]) for index in order],
                    [f"m:{index}" for index in order])


@pytest.fixture
def resolver():
    orders = Relation(ORDERS,
                      [(1, "a", 10), (2, "b", 3), (3, "a", 7), (4, "z", 9),
                       (5, None, 5)],
                      [f"b1:{i}" for i in range(5)])
    customers = Relation(CUSTS,
                         [("a", "west"), ("b", "east"), ("c", "west")],
                         [f"b2:{i}" for i in range(3)])
    events = Relation(EVENTS,
                      [(1, {"tags": ["x", "y"]}), (2, {"tags": []}),
                       (3, {"tags": None}), (4, {})],
                      [f"b3:{i}" for i in range(4)])
    return DictResolver({"orders": orders, "customers": customers,
                         "events": events})


def run(sql, resolver):
    plan = build_plan(parse_query(sql), PROVIDER)
    return evaluate(plan, resolver)


class TestScanProjectFilter:
    def test_project(self, resolver):
        result = run("SELECT amt * 2 d FROM orders WHERE id = 1", resolver)
        assert result.rows == [(20,)]

    def test_filter_null_is_dropped(self, resolver):
        result = run("SELECT id FROM orders WHERE cust = 'a'", resolver)
        assert sorted(result.rows) == [(1,), (3,)]  # NULL cust not matched

    def test_row_ids_pass_through(self, resolver):
        result = run("SELECT id FROM orders WHERE amt > 5", resolver)
        assert set(result.row_ids) <= {f"b1:{i}" for i in range(5)}

    def test_select_without_from(self, resolver):
        result = run("SELECT 1 + 1", resolver)
        assert result.rows == [(2,)]


class TestJoins:
    def test_inner(self, resolver):
        result = run(
            "SELECT o.id, c.region FROM orders o JOIN customers c "
            "ON o.cust = c.name", resolver)
        assert sorted(result.rows) == [(1, "west"), (2, "east"), (3, "west")]

    def test_left_pads_unmatched(self, resolver):
        result = run(
            "SELECT o.id, c.region FROM orders o LEFT JOIN customers c "
            "ON o.cust = c.name", resolver)
        assert sorted(result.rows, key=repr) == sorted(
            [(1, "west"), (2, "east"), (3, "west"), (4, None), (5, None)],
            key=repr)

    def test_null_keys_never_match(self, resolver):
        result = run(
            "SELECT o.id FROM orders o JOIN customers c ON o.cust = c.name "
            "WHERE o.id = 5", resolver)
        assert result.rows == []

    def test_right_join(self, resolver):
        result = run(
            "SELECT c.name, o.id FROM orders o RIGHT JOIN customers c "
            "ON o.cust = c.name", resolver)
        names = [row[0] for row in result.rows]
        assert "c" in names  # unmatched right row padded

    def test_full_join(self, resolver):
        result = run(
            "SELECT o.id, c.name FROM orders o FULL JOIN customers c "
            "ON o.cust = c.name", resolver)
        assert (None, "c") in result.rows
        assert (4, None) in result.rows

    def test_cross_join(self, resolver):
        result = run("SELECT o.id, c.name FROM orders o, customers c",
                     resolver)
        assert len(result.rows) == 15

    def test_residual_predicate(self, resolver):
        result = run(
            "SELECT o.id FROM orders o JOIN customers c "
            "ON o.cust = c.name AND o.amt > 5", resolver)
        assert sorted(result.rows) == [(1,), (3,)]

    def test_non_equi_join(self, resolver):
        result = run(
            "SELECT o.id, c.name FROM orders o JOIN customers c "
            "ON o.amt < 5 AND c.region = 'east'", resolver)
        assert result.rows == [(2, "b")]

    def test_join_row_ids_unique(self, resolver):
        result = run(
            "SELECT o.id FROM orders o LEFT JOIN customers c "
            "ON o.cust = c.name", resolver)
        assert len(set(result.row_ids)) == len(result.row_ids)


class TestAggregation:
    def test_group_by(self, resolver):
        result = run(
            "SELECT cust, count(*) n, sum(amt) s FROM orders GROUP BY cust",
            resolver)
        as_map = {row[0]: row[1:] for row in result.rows}
        assert as_map["a"] == (2, 17)
        assert as_map[None] == (1, 5)  # NULLs form their own group

    def test_count_ignores_nulls(self, resolver):
        result = run("SELECT count(cust) FROM orders", resolver)
        assert result.rows == [(4,)]

    def test_scalar_aggregate_on_empty(self, resolver):
        result = run("SELECT count(*), sum(amt) FROM orders WHERE id > 99",
                     resolver)
        assert result.rows == [(0, None)]

    def test_count_distinct(self, resolver):
        result = run("SELECT count(DISTINCT cust) FROM orders", resolver)
        assert result.rows == [(3,)]

    def test_count_if(self, resolver):
        result = run("SELECT count_if(amt > 5) FROM orders", resolver)
        assert result.rows == [(3,)]

    def test_having(self, resolver):
        result = run(
            "SELECT cust, count(*) n FROM orders GROUP BY cust "
            "HAVING count(*) > 1", resolver)
        assert result.rows == [("a", 2)]

    def test_avg(self, resolver):
        result = run("SELECT avg(amt) FROM orders WHERE cust = 'a'", resolver)
        assert result.rows == [(8.5,)]

    def test_distinct(self, resolver):
        result = run("SELECT DISTINCT cust FROM orders", resolver)
        assert len(result.rows) == 4
        assert len(set(result.row_ids)) == 4


class TestWindowFunctions:
    def test_row_number(self, resolver):
        result = run(
            "SELECT id, row_number() over (partition by cust order by amt desc) rn "
            "FROM orders WHERE cust = 'a'", resolver)
        as_map = dict(result.rows)
        assert as_map == {1: 1, 3: 2}

    def test_running_sum(self, resolver):
        result = run(
            "SELECT id, sum(amt) over (partition by cust order by id) s "
            "FROM orders WHERE cust = 'a'", resolver)
        assert dict(result.rows) == {1: 10, 3: 17}

    def test_whole_partition_aggregate(self, resolver):
        result = run(
            "SELECT id, count(*) over (partition by cust) c FROM orders",
            resolver)
        as_map = dict(result.rows)
        assert as_map[1] == 2 and as_map[2] == 1

    def test_rank_with_ties(self, resolver):
        rel = Relation(ORDERS, [(1, "a", 5), (2, "a", 5), (3, "a", 7)],
                       ["r0", "r1", "r2"])
        result = evaluate(
            build_plan(parse_query(
                "SELECT id, rank() over (partition by cust order by amt) r,"
                " dense_rank() over (partition by cust order by amt) d"
                " FROM orders"), PROVIDER),
            DictResolver({"orders": rel}))
        ranks = {row[0]: (row[1], row[2]) for row in result.rows}
        assert ranks[3] == (3, 2)
        assert ranks[1][0] == 1 and ranks[2][0] == 1

    def test_lag_lead(self, resolver):
        result = run(
            "SELECT id, lag(amt) over (partition by cust order by id) l "
            "FROM orders WHERE cust = 'a'", resolver)
        assert dict(result.rows) == {1: None, 3: 10}

    def test_qualify(self, resolver):
        result = run(
            "SELECT id, row_number() over (partition by cust order by amt desc) rn "
            "FROM orders QUALIFY rn = 1", resolver)
        assert len(result.rows) == 4  # one winner per cust group


class TestFlattenUnionSortLimit:
    def test_flatten(self, resolver):
        result = run(
            "SELECT id, f.value v, f.index i FROM events, "
            "LATERAL FLATTEN(input => payload:tags) f", resolver)
        assert sorted(result.rows) == [(1, "x", 0), (1, "y", 1)]

    def test_flatten_drops_non_arrays(self, resolver):
        result = run(
            "SELECT id FROM events, LATERAL FLATTEN(input => payload:tags) f "
            "WHERE id > 1", resolver)
        assert result.rows == []

    def test_union_all_keeps_duplicates(self, resolver):
        result = run(
            "SELECT cust FROM orders UNION ALL SELECT cust FROM orders",
            resolver)
        assert len(result.rows) == 10
        assert len(set(result.row_ids)) == 10

    def test_order_by(self, resolver):
        result = run("SELECT id FROM orders ORDER BY amt DESC", resolver)
        assert [row[0] for row in result.rows][:2] == [1, 4]

    def test_order_by_nulls_last_asc(self, resolver):
        result = run("SELECT cust FROM orders ORDER BY cust", resolver)
        assert result.rows[-1] == (None,)

    def test_limit(self, resolver):
        result = run("SELECT id FROM orders ORDER BY id LIMIT 2", resolver)
        assert result.rows == [(1,), (2,)]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_order_by_places_nan_above_every_float(self, order):
        resolver = DictResolver({"measures": _measures(order)})
        ascending = run("SELECT id FROM measures ORDER BY x", resolver)
        assert ascending.rows == [(0,), (1,), (2,), (3,)]
        descending = run("SELECT id FROM measures ORDER BY x DESC", resolver)
        assert descending.rows == [(3,), (2,), (1,), (0,)]


class TestDeterminism:
    def test_repeated_evaluation_identical(self, resolver):
        sql = ("SELECT cust, count(*) n FROM orders GROUP BY cust "
               "UNION ALL SELECT cust, amt FROM orders")
        first = run(sql, resolver)
        second = run(sql, resolver)
        assert first.rows == second.rows
        assert first.row_ids == second.row_ids


class _PartitionedResolver:
    """A resolver over pre-built micro-partitions, exposing the
    partition-granular reads (``scan_partitions``) that zone-map pruning
    and streaming use."""

    def __init__(self, tables):
        from repro.storage.partition import build_partitions

        self._partitions = {
            name: build_partitions(relation.row_ids, relation.columns,
                                   partition_rows)
            for name, (relation, partition_rows) in tables.items()}
        self._schemas = {name: relation.schema
                         for name, (relation, __) in tables.items()}

    def scan(self, table):
        return Relation.concat(self._schemas[table], self._partitions[table])

    def scan_partitions(self, table):
        return iter(self._partitions[table])


class TestScanPruningStats:
    """EXPLAIN's pruning report: partitions scanned vs. skipped by zone
    maps on the columnar scan path."""

    def _resolver(self):
        orders = Relation(
            ORDERS,
            [(i, "c", i) for i in range(40)],  # amt 0..39, 10 per partition
            [f"b1:{i}" for i in range(40)])
        return _PartitionedResolver({"orders": (orders, 10)})

    def test_skipped_partitions_reported(self):
        from repro.engine.executor import scan_pruning_stats

        resolver = self._resolver()
        plan = build_plan(parse_query(
            "SELECT id FROM orders WHERE amt >= 30"), PROVIDER)
        stats = scan_pruning_stats(plan, resolver)
        assert stats == [("orders", 4, 1, 3)]

    def test_unprunable_predicate_scans_everything(self):
        from repro.engine.executor import scan_pruning_stats

        resolver = self._resolver()
        plan = build_plan(parse_query(
            "SELECT id FROM orders WHERE amt + 1 > 30"), PROVIDER)
        stats = scan_pruning_stats(plan, resolver)
        assert stats == [("orders", 4, 4, 0)]

    def test_resolver_without_partitions_reports_nothing(self, resolver):
        from repro.engine.executor import scan_pruning_stats

        plan = build_plan(parse_query(
            "SELECT id FROM orders WHERE amt > 5"), PROVIDER)
        assert scan_pruning_stats(plan, resolver) == []

    def test_pruned_scan_matches_full_scan(self):
        resolver = self._resolver()
        plan = build_plan(parse_query(
            "SELECT id FROM orders WHERE amt >= 30"), PROVIDER)
        result = evaluate(plan, resolver)
        assert [row[0] for row in result.rows] == list(range(30, 40))


class TestStreamingTopK:
    """ORDER BY ... LIMIT k streams through a bounded top-k heap and must
    reproduce the materialized sort-then-limit output exactly."""

    def _resolver(self, rows):
        orders = Relation(ORDERS, rows,
                          [f"b1:{i}" for i in range(len(rows))])
        return _PartitionedResolver({"orders": (orders, 3)})

    def _check(self, sql, rows):
        from repro.engine.executor import stream_evaluate

        resolver = self._resolver(rows)
        plan = build_plan(parse_query(sql), PROVIDER)
        materialized = evaluate(plan, resolver)
        batches = stream_evaluate(plan, resolver)
        assert batches is not None, "plan did not stream"
        streamed = [pair for batch in batches for pair in batch.pairs()]
        assert streamed == list(materialized.pairs())

    def test_top_k_ascending(self):
        rows = [(i, "c", (i * 7) % 13) for i in range(20)]
        self._check("SELECT id, amt FROM orders ORDER BY amt LIMIT 5", rows)

    def test_top_k_descending_with_ties_and_nulls(self):
        rows = [(1, "a", 5), (2, "b", 5), (3, "c", None), (4, "d", 9),
                (5, "e", None), (6, "f", 5), (7, "g", 1)]
        self._check(
            "SELECT id FROM orders ORDER BY amt DESC LIMIT 4", rows)

    def test_top_k_larger_than_input(self):
        rows = [(1, "a", 3), (2, "b", 1)]
        self._check("SELECT id FROM orders ORDER BY amt LIMIT 10", rows)

    def test_top_k_zero(self):
        rows = [(1, "a", 3), (2, "b", 1)]
        self._check("SELECT id FROM orders ORDER BY amt LIMIT 0", rows)

    def test_top_k_with_filter_below(self):
        rows = [(i, "c", i % 7) for i in range(30)]
        self._check("SELECT id, amt FROM orders WHERE amt > 2 "
                    "ORDER BY amt, id LIMIT 6", rows)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_top_k_places_nan_above_every_float(self, order):
        from repro.engine.executor import stream_evaluate

        resolver = _PartitionedResolver({"measures": (_measures(order), 1)})
        for sql, expected in (
                ("SELECT id FROM measures ORDER BY x LIMIT 2", [0, 1]),
                ("SELECT id FROM measures ORDER BY x DESC LIMIT 2", [3, 2])):
            plan = build_plan(parse_query(sql), PROVIDER)
            streamed = [row for batch in stream_evaluate(plan, resolver)
                        for row in batch.rows]
            assert streamed == [(index,) for index in expected]
            assert evaluate(plan, resolver).rows == streamed

    @pytest.mark.parametrize("seed", range(6))
    def test_top_k_ties_across_partitions(self, seed):
        """Ties span partition boundaries (three rows per partition, five
        amounts): every k from none to more than the input streams the
        materialized rows, ids and order."""
        rng = random.Random(seed)
        rows = [(i, rng.choice(["a", "b", None]), rng.choice(
            [None, 1, 2, 2, 3])) for i in range(rng.randint(1, 14))]
        for count in (0, 1, 2, 5, len(rows), len(rows) + 3):
            for order_by in ("amt", "amt DESC", "cust DESC, amt",
                             "amt, cust DESC"):
                self._check(f"SELECT id, cust FROM orders ORDER BY "
                            f"{order_by} LIMIT {count}", rows)



# ---------------------------------------------------------------------------
# One operator set: draining the stream is evaluating the plan
# ---------------------------------------------------------------------------

WIDE = schema_of(("a", SqlType.INT), ("b", SqlType.TEXT), ("c", SqlType.INT),
                 ("x", SqlType.FLOAT), ("p", SqlType.VARIANT))
WIDE_PROVIDER = DictSchemaProvider({"t": WIDE, "u": WIDE})


class _PrunedPartitionedResolver(_PartitionedResolver):
    """Partitions plus the zone-map pruned whole read, so :func:`evaluate`
    prunes through ``scan_pruned`` while the stream prunes per
    partition."""

    def scan_pruned(self, table, bounds):
        return Relation.concat(self._schemas[table], (
            partition for partition in self._partitions[table]
            if partition.might_match(bounds)))


# Few values per column: NULLs and ties everywhere. The FLOAT values are
# dyadic, so their sums are exact in any order: Python 3.12's sum()
# compensates rounding, and a sum folded partition by partition may then
# differ in the last place from one folded whole.
_WIDE_ROW = st.tuples(
    st.sampled_from([None, 0, 1, 2]),
    st.sampled_from([None, "p", "q"]),
    st.sampled_from([None, 0, 1, 2, 5]),
    st.sampled_from([None, 0.25, 0.5, 4.0, -1.5]),
    st.sampled_from([None, {}, {"tags": "s"}, {"tags": [1, 2]},
                     {"tags": [3]}]))
_TABLE = st.tuples(st.lists(_WIDE_ROW, max_size=12), st.integers(1, 5))
_PREDICATE = st.sampled_from([
    "c >= 2", "a = 1", "b IS NULL", "x > 0.3", "a = 1 OR c IS NULL",
    "c % 2 = 0", "b <> 'p'"])
_SORT_KEYS = st.sampled_from(["c", "c DESC, b", "x, a DESC", "b DESC, x"])
_JOIN_KIND = st.sampled_from(["", "LEFT", "RIGHT", "FULL"])
_JOIN_ON = st.sampled_from(["l.a = r.a", "l.c < r.c",
                            "l.a = r.a AND l.b <> r.b"])
# Every generated query yields (a INT, b TEXT, c INT, x FLOAT), so any
# one can feed any other.
_LEAF = st.one_of(
    st.sampled_from(["t", "u"]).map("SELECT a, b, c, x FROM {}".format),
    st.tuples(st.sampled_from(["t", "u"]), _PREDICATE).map(
        lambda args: "SELECT a, b, c, x FROM {} WHERE {}".format(*args)),
    st.sampled_from(["t", "u"]).map(
        "SELECT s.a, s.b, f.index c, s.x FROM {} s, "
        "LATERAL FLATTEN(input => s.p:tags) f".format),
    st.just("SELECT 1 a, 'q' b, 2 c, 0.5 x"))
_AGGREGATES = st.sampled_from([
    "SELECT a, min(b) b, count(*) c, sum(x) x FROM ({}) s GROUP BY a",
    "SELECT c % 3 a, max(b) b, sum(c) c, avg(x) x FROM ({}) s "
    "GROUP BY c % 3",
    "SELECT a, listagg(b) b, count(DISTINCT c) c, min(x) x FROM ({}) s "
    "GROUP BY a, b",
    "SELECT count(*) a, max(b) b, sum(c) c, avg(x) x FROM ({}) s",
    "SELECT count(c) a, min(b) b, sum(DISTINCT c) c, sum(x) x FROM ({}) s"])
_DISTINCTS = st.sampled_from([
    "SELECT DISTINCT a, b, c, x FROM ({}) s",
    "SELECT DISTINCT a, b, c % 2 c, x FROM ({}) s"])
_WINDOWS = st.sampled_from([
    "SELECT a, b, row_number() OVER (PARTITION BY b ORDER BY c, a) c, "
    "sum(x) OVER (PARTITION BY a) x FROM ({}) s",
    "SELECT a, b, rank() OVER (ORDER BY c DESC) c, x FROM ({}) s"])


def _extend(children):
    def wrap(templates):
        return st.tuples(templates, children).map(
            lambda args: args[0].format(args[1]))

    return st.one_of(
        st.tuples(children, _PREDICATE).map(
            lambda args: "SELECT a, b, c, x FROM ({}) s WHERE {}".format(
                *args)),
        children.map("SELECT a, b, c + 1 c, x * 2 x FROM ({}) s".format),
        st.tuples(children, children).map(
            lambda args: "SELECT * FROM ({}) s1 UNION ALL "
                         "SELECT * FROM ({}) s2".format(*args)),
        st.tuples(children, _JOIN_KIND, children, _JOIN_ON).map(
            lambda args: "SELECT l.a, r.b, l.c, r.x FROM ({}) l {} JOIN "
                         "({}) r ON {}".format(*args)),
        wrap(_AGGREGATES), wrap(_DISTINCTS), wrap(_WINDOWS),
        st.tuples(children, _SORT_KEYS).map(
            lambda args: "SELECT * FROM ({}) s ORDER BY {}".format(*args)),
        st.tuples(children, _SORT_KEYS, st.integers(0, 6)).map(
            lambda args: "SELECT * FROM ({}) s ORDER BY {} LIMIT {}".format(
                *args)),
        st.tuples(children, st.integers(0, 6)).map(
            lambda args: "SELECT * FROM ({}) s LIMIT {}".format(*args)))


_QUERY = st.recursive(_LEAF, _extend, max_leaves=5)


def _outcome(run):
    """``run()``'s ``(row_id, row)`` pairs, or the type of its error."""
    try:
        return list(run())
    except ReproError as exc:
        return type(exc)


class TestOneOperatorSet:
    """:func:`stream_evaluate` and :func:`evaluate` are one operator set:
    draining the stream of any plan gives the evaluated rows, ids and
    order, whatever the partitioning."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sql=_QUERY, optimized=st.booleans(), t=_TABLE, u=_TABLE)
    def test_drained_stream_equals_evaluate(self, sql, optimized, t, u):
        from repro.engine.executor import stream_evaluate

        tables = {}
        for name, (rows, partition_rows) in (("t", t), ("u", u)):
            tables[name] = (Relation(WIDE, rows, [f"{name}:{index}" for index
                                                  in range(len(rows))]),
                            partition_rows)
        resolver = _PrunedPartitionedResolver(tables)
        plan = build_plan(parse_query(sql), WIDE_PROVIDER)
        if optimized:
            plan = optimize(plan)
        evaluated = _outcome(lambda: evaluate(plan, resolver).pairs())
        streamed = _outcome(lambda: (
            pair for batch in stream_evaluate(plan, resolver)
            for pair in batch.pairs()))
        assert streamed == evaluated, sql

    def test_scalar_aggregate_over_no_partitions_has_its_row(self):
        from repro.engine.executor import stream_evaluate

        resolver = _PartitionedResolver({"t": (Relation(WIDE, []), 4)})
        assert resolver.scan_partitions("t") is not None
        assert not list(resolver.scan_partitions("t"))
        plan = build_plan(parse_query(
            "SELECT count(*), sum(c), min(b) FROM t"), WIDE_PROVIDER)
        streamed = [row for batch in stream_evaluate(plan, resolver)
                    for row in batch.rows]
        assert streamed == [(0, None, None)]
        assert evaluate(plan, resolver).rows == streamed

    def test_negative_limit_raises_when_the_stream_is_created(self):
        from repro.engine.executor import stream_evaluate
        from repro.plan import logical as lp

        resolver = self._resolver()
        scan = build_plan(parse_query("SELECT a FROM t"), WIDE_PROVIDER)
        with pytest.raises(UserError, match="non-negative"):
            stream_evaluate(lp.Limit(scan, -1), resolver)
        with pytest.raises(UserError, match="non-negative"):
            evaluate(lp.Limit(scan, -1), resolver)

    def _resolver(self):
        rows = [(index % 3, "p", index, 0.5, None) for index in range(9)]
        return _PartitionedResolver(
            {"t": (Relation(WIDE, rows, [f"t:{i}" for i in range(9)]), 2)})
