"""Edge-case tests for window evaluation: ties, peers, determinism.

The paper's window derivative requires that "ties in ORDER BY are broken
repeatably" — these tests pin that behaviour down.
"""

import math
import random

from repro.engine.executor import evaluate
from repro.engine.relation import DictResolver, Relation
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.plan.builder import DictSchemaProvider, build_plan
from repro.sql.parser import parse_query

ROWS = schema_of(("id", SqlType.INT), ("grp", SqlType.TEXT),
                 ("val", SqlType.INT), table="t")
FLOATS = schema_of(("id", SqlType.INT), ("grp", SqlType.TEXT),
                   ("x", SqlType.FLOAT), table="f")
PROVIDER = DictSchemaProvider({"t": ROWS, "f": FLOATS})


def run(sql, rows, ids=None):
    relation = Relation(ROWS, rows,
                        ids or [f"r{i}" for i in range(len(rows))])
    plan = build_plan(parse_query(sql), PROVIDER)
    return evaluate(plan, DictResolver({"t": relation}))


class TestTieBreaking:
    def test_row_number_with_full_ties_is_deterministic(self):
        rows = [(1, "a", 5), (2, "a", 5), (3, "a", 5)]
        sql = ("SELECT id, row_number() over (partition by grp "
               "order by val) rn FROM t")
        first = dict(run(sql, rows).rows)
        # Shuffle the input order: the assignment must not change.
        shuffled = [rows[2], rows[0], rows[1]]
        ids = ["r2", "r0", "r1"]
        second = dict(run(sql, shuffled, ids).rows)
        assert first == second

    def test_peers_share_cumulative_frames(self):
        rows = [(1, "a", 5), (2, "a", 5), (3, "a", 7)]
        sql = ("SELECT id, sum(val) over (partition by grp order by val) s "
               "FROM t")
        result = dict(run(sql, rows).rows)
        # RANGE frame: the two val=5 peers both see sum 10.
        assert result[1] == 10 and result[2] == 10
        assert result[3] == 17

    def test_rank_gaps_and_dense_rank(self):
        rows = [(1, "a", 5), (2, "a", 5), (3, "a", 7), (4, "a", 9)]
        sql = ("SELECT id, rank() over (partition by grp order by val) r, "
               "dense_rank() over (partition by grp order by val) d FROM t")
        result = {row[0]: row[1:] for row in run(sql, rows).rows}
        assert result[3] == (3, 2)
        assert result[4] == (4, 3)


class TestNullsAndEmpty:
    def test_null_order_keys(self):
        rows = [(1, "a", None), (2, "a", 5)]
        sql = ("SELECT id, row_number() over (partition by grp "
               "order by val) rn FROM t")
        result = dict(run(sql, rows).rows)
        # NULLS LAST ascending: the non-null row ranks first.
        assert result[2] == 1
        assert result[1] == 2

    def test_null_partition_key_forms_own_partition(self):
        rows = [(1, None, 5), (2, None, 6), (3, "a", 7)]
        sql = "SELECT id, count(*) over (partition by grp) c FROM t"
        result = dict(run(sql, rows).rows)
        assert result[1] == 2 and result[3] == 1

    def test_empty_input(self):
        sql = ("SELECT id, row_number() over (partition by grp "
               "order by val) rn FROM t")
        assert run(sql, []).rows == []

    def test_lead_at_partition_end_is_null(self):
        rows = [(1, "a", 5), (2, "a", 6)]
        sql = ("SELECT id, lead(val) over (partition by grp order by id) x "
               "FROM t")
        result = dict(run(sql, rows).rows)
        assert result[1] == 6 and result[2] is None

    def test_first_and_last_value(self):
        rows = [(1, "a", 5), (2, "a", 9), (3, "a", 1)]
        sql = ("SELECT id, first_value(val) over (partition by grp "
               "order by val) f, last_value(val) over (partition by grp "
               "order by val) l FROM t")
        result = {row[0]: row[1:] for row in run(sql, rows).rows}
        assert all(values == (1, 9) for values in result.values())


class TestDeterminismUnderShuffle:
    def test_any_window_stable_under_input_permutation(self):
        rng = random.Random(5)
        rows = [(i, f"g{i % 3}", rng.randint(0, 4)) for i in range(12)]
        ids = [f"r{i}" for i in range(12)]
        sql = ("SELECT id, row_number() over (partition by grp order by "
               "val desc) rn, sum(val) over (partition by grp order by "
               "val, id) s FROM t")
        baseline = sorted(run(sql, rows, ids).rows)
        for __ in range(5):
            order = list(range(12))
            rng.shuffle(order)
            shuffled_rows = [rows[i] for i in order]
            shuffled_ids = [ids[i] for i in order]
            assert sorted(run(sql, shuffled_rows, shuffled_ids).rows) == \
                   baseline

    def test_float_specials_stable_under_input_permutation(self):
        """NaN sorts above every FLOAT (NaNs are peers), ±inf and -0.0
        sort as numbers, NULL keeps its place: a total order, so window
        values do not depend on the input order."""
        rng = random.Random(11)
        specials = [float("nan"), math.inf, -math.inf, -0.0, 0.0, None,
                    1.5, float("nan"), 2.0]
        rows = [(i, f"g{i % 2}", specials[i % len(specials)])
                for i in range(18)]
        ids = [f"r{i}" for i in range(18)]
        sql = ("SELECT id, row_number() over (partition by grp order by x) "
               "rn, rank() over (partition by grp order by x desc) r, "
               "dense_rank() over (partition by grp order by x) d FROM f")
        plan = build_plan(parse_query(sql), PROVIDER)

        def evaluate_rows(order):
            relation = Relation(FLOATS, [rows[i] for i in order],
                                [ids[i] for i in order])
            return sorted(evaluate(plan, DictResolver({"f": relation})).rows)

        baseline = evaluate_rows(range(18))
        ranked = {row[0]: row[1:] for row in baseline}
        # g0 (even ids) ascending: -inf, -0.0 = 0.0, 1.5, 2.0, inf, NaN
        # (ids 0 and 16, peers), then NULL (id 14) last.
        assert ranked[0][2] == ranked[16][2] == 6
        assert ranked[14][2] == 7
        assert ranked[0][1] == ranked[16][1] == 2  # DESC: NULL, then NaN
        for __ in range(8):
            order = list(range(18))
            rng.shuffle(order)
            assert evaluate_rows(order) == baseline
