"""Differential testing of aggregation against stdlib ``sqlite3``.

The aggregate slice of the SQLite oracle (``test_expr_sqlite_diff`` is
the scalar-expression slice and the model). Seeded random queries — GROUP
BY, scalar aggregates and ``SELECT DISTINCT`` — over a NULL-laden table
of INT and TEXT columns are run three ways and compared as multisets:
through ``Database.query``, as a dynamic table refreshed incrementally
after each step of a DML script, and through ``sqlite3`` on the same
data. The aggregates are ``count(*)``, ``count``, ``sum``, ``avg``,
``min`` and ``max``, each with and without DISTINCT. One INT column holds
values beyond 2**53 (where a float-normalized key would merge
neighbours), kept small enough in number that every sum stays inside
int64, where SQLite's integer sums are exact.

Kept out, because the dialects legitimately disagree:

* FLOAT columns — SQLite stores NaN as NULL, so NaN inside DISTINCT or
  GROUP BY cannot be compared;
* ``listagg`` — its ordering is dialect behaviour (SQLite's
  ``group_concat`` follows scan order);
* ``median``, ``stddev``, ``variance`` — SQLite has none of them;
* ``avg`` over INTs beyond 2**53 — SQLite sums AVG's inputs as doubles,
  which hold such INTs only to the nearest even, and cancellation then
  moves an average by whole units (the average of 2**53 and -2**53 - 1 is
  0.0 there, -0.5 here). The SQLite side spells ``avg(x)`` as
  ``sum(x) * 1.0 / count(x)`` instead: its exact int64 sum, divided once.
  That still rounds the sum to a double before dividing, so FLOAT results
  are compared with :func:`math.isclose`.
"""

import math
import random
import sqlite3

import pytest

from repro import Database

COLUMNS = "id int, g int, a int, s text, big int"
BIG = 2 ** 53
SCRIPT = (
    "DELETE FROM t WHERE id % 5 = 0",
    "UPDATE t SET a = a + 1, big = big + 2 WHERE id % 3 = 0",
    "DELETE FROM t WHERE g = 2",
)
QUERIES_PER_SEED = 40


def _rows(rng):
    def maybe(value):
        return None if rng.random() < 0.2 else value
    return [(index, maybe(rng.randrange(4)), maybe(rng.randint(-5, 5)),
             maybe(rng.choice(["", "a", "ab", "b", "ba"])),
             maybe(rng.choice([BIG, BIG + 1, BIG + 2, -BIG - 1, 7])))
            for index in range(40)]


class Generator:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def aggregate(self):
        """One aggregate, spelled for this engine and for SQLite."""
        function = self.rng.choice(
            ["count(*)", "count", "sum", "avg", "min", "max"])
        if function == "count(*)":
            return function, function
        distinct = "DISTINCT " if self.rng.random() < 0.5 else ""
        arguments = (["a", "big"] if function in ("sum", "avg")
                     else ["a", "big", "s", "g"])
        argument = distinct + self.rng.choice(arguments)
        if function == "avg":
            return (f"avg({argument})",
                    f"(sum({argument}) * 1.0 / count({argument}))")
        return (f"{function}({argument})",) * 2

    def aggregates(self):
        pairs = [self.aggregate() for __ in range(self.rng.randint(1, 3))]
        return tuple(", ".join(f"{pair[side]} x{position}"
                               for position, pair in enumerate(pairs))
                     for side in (0, 1))

    def query(self):
        """A query as ``(this engine's SQL, SQLite's SQL)``."""
        kind = self.rng.randrange(3)
        keys = ", ".join(self.rng.sample(["g", "s", "big"],
                                         self.rng.randint(1, 2)))
        if kind == 0:
            return tuple(f"SELECT {keys}, {aggregates} FROM t GROUP BY {keys}"
                         for aggregates in self.aggregates())
        if kind == 1:
            where = self.rng.choice(["", " WHERE a > 0", " WHERE id < 0"])
            return tuple(f"SELECT {aggregates} FROM t{where}"
                         for aggregates in self.aggregates())
        return (f"SELECT DISTINCT {keys} FROM t",) * 2


def _sort_key(row):
    return repr(tuple(f"{value:.9g}" if isinstance(value, float) else value
                      for value in row))


def _same(produced, expected):
    produced = sorted(produced, key=_sort_key)
    expected = sorted(expected, key=_sort_key)
    if len(produced) != len(expected):
        return False
    for mine, theirs in zip(produced, expected):
        if len(mine) != len(theirs):
            return False
        for left, right in zip(mine, theirs):
            if isinstance(left, float) or isinstance(right, float):
                if left is None or right is None or not math.isclose(
                        left, right, rel_tol=1e-12):
                    return False
            elif left != right:
                return False
    return True


@pytest.mark.parametrize("seed", [20251017, 3])
def test_aggregates_match_sqlite(seed):
    rng = random.Random(seed)
    rows = _rows(rng)
    db = Database()
    db.create_warehouse("wh")
    db.execute(f"CREATE TABLE t ({COLUMNS})")
    lite = sqlite3.connect(":memory:")
    lite.execute(f"CREATE TABLE t ({COLUMNS})")

    def insert(batch):
        db.prepare("INSERT INTO t VALUES (?, ?, ?, ?, ?)").executemany(batch)
        lite.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", batch)

    insert(rows[:25])
    generator = Generator(seed)
    queries = [generator.query() for __ in range(QUERIES_PER_SEED)]
    for index, (sql, __) in enumerate(queries):
        db.create_dynamic_table(f"d{index}", sql, "1 minute", "wh",
                                refresh_mode="incremental")

    mismatches = []
    for step in (None, *SCRIPT):
        if step is None:
            insert(rows[25:])
        else:
            db.execute(step)
            lite.execute(step)
        for index, (sql, lite_sql) in enumerate(queries):
            db.refresh_dynamic_table(f"d{index}")
            expected = lite.execute(lite_sql).fetchall()
            queried = db.query(sql).rows
            maintained = db.query(f"SELECT * FROM d{index}").rows
            if not (_same(queried, expected) and _same(maintained, expected)):
                mismatches.append((step, sql, queried, maintained, expected))
    lite.close()
    assert not mismatches, (
        f"{len(mismatches)} query results disagree with sqlite3; "
        f"first: {mismatches[0]}")
