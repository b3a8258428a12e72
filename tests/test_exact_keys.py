"""Grouping keys are exact, and DISTINCT means the same thing everywhere.

Two regressions, each checked through every path that keys values:

* INT keys beyond 2**53 are distinct values. A key that went through
  ``float()`` made 2**53 and 2**53 + 1 one group, one DISTINCT value, an
  equi-join match and a key-index hit.
* Inside ``count(DISTINCT f)`` every NaN is one value, in the stateful
  fold as in full evaluation, so a dynamic table keeps its delayed view
  semantics when NaNs arrive in separate refreshes.
"""

from __future__ import annotations

from repro import Database
from repro.engine.types import group_key, group_key_columns

BIG = 2 ** 53
KEYS = [(BIG, 1), (BIG + 1, 2), (BIG + 1, 4)]


def _db() -> Database:
    db = Database()
    db.create_warehouse("wh")
    db.execute("CREATE TABLE k (k int, v int)")
    db.prepare("INSERT INTO k VALUES (?, ?)").executemany(KEYS)
    return db


class TestIntKeysBeyond2To53:
    def test_group_key_keeps_ints_exact(self):
        assert group_key((BIG,)) != group_key((BIG + 1,))
        assert group_key_columns([[BIG, BIG + 1]], 2) == [
            group_key((BIG,)), group_key((BIG + 1,))]
        # Cross-numeric equality stays: 1 and 1.0 are one key.
        assert group_key((1,)) == group_key((1.0,))
        assert hash(group_key((1,))) == hash(group_key((1.0,)))

    def test_group_by(self):
        rows = _db().query("SELECT k, sum(v) s FROM k GROUP BY k").rows
        assert sorted(rows) == [(BIG, 1), (BIG + 1, 6)]

    def test_select_distinct(self):
        rows = _db().query("SELECT DISTINCT k FROM k").rows
        assert sorted(rows) == [(BIG,), (BIG + 1,)]

    def test_count_distinct(self):
        db = _db()
        assert db.query("SELECT count(DISTINCT k) FROM k").rows == [(2,)]
        assert db.query("SELECT sum(DISTINCT k) FROM k").rows == [
            (2 * BIG + 1,)]

    def test_equi_join_has_no_false_match(self):
        rows = _db().query(
            "SELECT a.v, b.v FROM k a JOIN k b ON a.k = b.k").rows
        assert sorted(rows) == [(1, 1), (2, 2), (2, 4), (4, 2), (4, 4)]

    def test_key_index_probe(self):
        db = _db()
        table = db.catalog.versioned_table("k")
        got = table.relation_matching(table.current_version, (0,),
                                      {group_key((BIG + 1,))})
        assert sorted(got.rows) == [(BIG + 1, 2), (BIG + 1, 4)]

    def test_dynamic_table_keeps_groups_apart(self):
        db = _db()
        db.create_dynamic_table(
            "g", "SELECT k, count(*) n, sum(v) s FROM k GROUP BY k",
            "1 minute", "wh")
        db.prepare("INSERT INTO k VALUES (?, ?)").executemany(
            [(BIG, 8), (BIG + 2, 16)])
        db.refresh_dynamic_table("g")
        assert db.check_dvs("g")
        assert sorted(db.query("SELECT * FROM g").rows) == [
            (BIG, 2, 9), (BIG + 1, 2, 6), (BIG + 2, 1, 16)]


class TestNanInsideDistinct:
    def test_count_distinct_nan_across_refreshes(self):
        """Two NaN objects inserted by separate refreshes are one DISTINCT
        value: the dynamic table must equal the direct query each time."""
        db = Database()
        db.create_warehouse("wh")
        db.execute("CREATE TABLE t (g int, f float)")
        db.execute("INSERT INTO t VALUES (1, 1.0)")
        sql = "SELECT g, count(DISTINCT f) c FROM t GROUP BY g"
        db.create_dynamic_table("d", sql, "1 minute", "wh")
        insert = db.prepare("INSERT INTO t VALUES (?, ?)")
        for __ in range(3):
            insert.executemany([(1, float("nan"))])
            db.refresh_dynamic_table("d")
            assert db.query("SELECT * FROM d").rows == db.query(sql).rows
            assert db.query("SELECT * FROM d").rows == [(1, 2)]
            assert db.check_dvs("d")
        # Retracting every NaN copy empties the one DISTINCT NaN.
        db.execute("DELETE FROM t WHERE g = 1")
        db.execute("INSERT INTO t VALUES (1, 2.0)")
        db.refresh_dynamic_table("d")
        assert db.query("SELECT * FROM d").rows == [(1, 1)]
        assert db.check_dvs("d")

    def test_nan_state_survives_checkpoint(self, tmp_path):
        """Restored distinct state keeps counting every NaN as one value."""
        sql = "SELECT g, count(DISTINCT f) c FROM t GROUP BY g"
        db = Database(path=str(tmp_path))
        db.create_warehouse("wh")
        db.execute("CREATE TABLE t (g int, f float)")
        db.prepare("INSERT INTO t VALUES (?, ?)").executemany(
            [(1, 1.0), (1, float("nan"))])
        db.create_dynamic_table("d", sql, "1 minute", "wh")
        db.prepare("INSERT INTO t VALUES (?, ?)").executemany(
            [(1, float("nan"))])
        db.refresh_dynamic_table("d")
        db.checkpoint()
        db.close()

        db = Database(path=str(tmp_path))
        db.prepare("INSERT INTO t VALUES (?, ?)").executemany(
            [(1, float("nan"))])
        record = db.refresh_dynamic_table("d")
        assert record.ivm_stats.agg_stateful_folds == 1
        assert record.ivm_stats.endpoint_evals == 0  # restored, not rebuilt
        assert db.query("SELECT * FROM d").rows == [(1, 2)]
        assert db.check_dvs("d")
        db.close()

    def test_minus_zero_is_zero(self):
        db = Database()
        db.execute("CREATE TABLE t (f float)")
        db.prepare("INSERT INTO t VALUES (?)").executemany(
            [(0.0,), (-0.0,), (float("nan"),), (float("nan"),), (None,)])
        assert db.query("SELECT count(DISTINCT f) FROM t").rows == [(2,)]
