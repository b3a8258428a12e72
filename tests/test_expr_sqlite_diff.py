"""Differential testing of scalar expressions against stdlib ``sqlite3``.

Production-vs-``force_interpreted()`` equivalence cannot catch a NULL /
three-valued-logic / coercion bug both evaluators share — they have one
author. SQLite is an oracle we did not write: seeded random scalar
expressions over a small NULL-laden table are each run as ``SELECT id,
<expr> FROM t`` through ``Database.query`` and through ``sqlite3``, and
the two multisets must be equal (BOOL normalised to SQLite's 0 / 1).

The generator covers comparison, ``AND`` / ``OR`` / ``NOT``, ``IS [NOT]
NULL``, ``[NOT] IN`` with NULL items, ``[NOT] BETWEEN``, searched and
simple ``CASE``, ``+ - *``, ``coalesce``, ``nullif``, ``abs``,
``length``, ``upper`` / ``lower``, ``substr`` and ``||``. Expressions are
generated *typed* (int / text / bool), comparisons stay within one kind
and integers stay small, because SQLite's type affinity and int64
overflow-to-float are dialect behaviour, not semantics under test.

Kept out, because the dialects legitimately disagree:

* ``/`` — Snowflake-style decimal division here, integer division in
  SQLite (``7 / 2`` is 3.5 vs 3);
* ``LIKE`` — case-sensitive here, case-insensitive for ASCII in SQLite;
* ``ROUND`` — half away from zero on the shortest decimal form here,
  binary floating point in SQLite (``round(2.675, 2)``);
* ``CAST(text AS int)`` on non-numeric text — an error here, 0 there;
* ``substr`` with a start below 1 or a negative length, where SQLite
  counts from the end of the string.

This is the expression slice of ROADMAP item 5a; there is no plan -> SQL
renderer yet, so only scalar expressions (which both dialects spell the
same way) are compared.
"""

import random
import sqlite3

import pytest

from repro import Database
from repro.engine.expressions import force_interpreted

COLUMNS = "id int, a int, b int, c int, s text, u text"
ROWS = [
    (1, 0, 1, None, "ab", "AB"),
    (2, 1, 0, 2, "Ab", None),
    (3, -1, None, -2, "", "b"),
    (4, None, 3, 0, "abc", "abc"),
    (5, 2, 2, None, None, "a"),
    (6, 3, -3, 1, "b", ""),
    (7, None, None, None, None, None),
    (8, -2, 1, 3, "ba", "Ba"),
    (9, 5, 5, 5, "c", "c"),
    (10, 1, 4, -1, "abd", "ab"),
]
INT_COLUMNS = ("a", "b", "c")
TEXT_COLUMNS = ("s", "u")
TEXT_LITERALS = ("", "a", "ab", "Ab", "b", "abc")
EXPRESSIONS_PER_SEED = 600


class Generator:
    """Typed random expressions; ``depth`` bounds nesting so integers stay
    far from int64 overflow (|leaf| <= 5, at most three ``*`` deep)."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def pick(self, *options):
        return self.rng.choice(options)

    def int_literal(self):
        return "NULL" if self.rng.random() < 0.15 else str(
            self.rng.randint(-5, 5))

    def integer(self, depth):
        if depth <= 0 or self.rng.random() < 0.3:
            return self.pick(self.pick(*INT_COLUMNS), self.int_literal())
        kind = self.rng.randrange(8)
        if kind < 3:
            op = self.pick("+", "-", "*")
            return (f"({self.integer(depth - 1)} {op} "
                    f"{self.integer(depth - 1)})")
        if kind == 3:
            return f"abs({self.integer(depth - 1)})"
        if kind == 4:
            return f"length({self.text(depth - 1)})"
        if kind == 5:
            return (f"coalesce({self.integer(depth - 1)}, "
                    f"{self.integer(depth - 1)})")
        if kind == 6:
            return (f"nullif({self.integer(depth - 1)}, "
                    f"{self.integer(depth - 1)})")
        return self.case(depth, self.integer)

    def text_literal(self):
        if self.rng.random() < 0.15:
            return "NULL"
        return "'" + self.pick(*TEXT_LITERALS) + "'"

    def text(self, depth):
        if depth <= 0 or self.rng.random() < 0.3:
            return self.pick(self.pick(*TEXT_COLUMNS), self.text_literal())
        kind = self.rng.randrange(6)
        if kind == 0:
            return f"upper({self.text(depth - 1)})"
        if kind == 1:
            return f"lower({self.text(depth - 1)})"
        if kind == 2:
            return (f"substr({self.text(depth - 1)}, "
                    f"{self.rng.randint(1, 3)}, {self.rng.randint(0, 3)})")
        if kind == 3:
            return f"({self.text(depth - 1)} || {self.text(depth - 1)})"
        if kind == 4:
            return (f"coalesce({self.text(depth - 1)}, "
                    f"{self.text(depth - 1)})")
        return self.case(depth, self.text)

    def case(self, depth, branch):
        otherwise = (f" ELSE {branch(depth - 1)}"
                     if self.rng.random() < 0.7 else "")
        arms = self.rng.randint(1, 2)
        if self.rng.random() < 0.5:  # searched
            whens = " ".join(
                f"WHEN {self.boolean(depth - 1)} THEN {branch(depth - 1)}"
                for __ in range(arms))
            return f"CASE {whens}{otherwise} END"
        whens = " ".join(
            f"WHEN {self.integer(0)} THEN {branch(depth - 1)}"
            for __ in range(arms))
        return f"CASE {self.integer(depth - 1)} {whens}{otherwise} END"

    def boolean(self, depth):
        kind = self.rng.randrange(9 if depth > 0 else 5)
        compare = self.pick("=", "<>", "<", "<=", ">", ">=")
        if kind == 0:
            return (f"({self.integer(depth - 1)} {compare} "
                    f"{self.integer(depth - 1)})")
        if kind == 1:
            return (f"({self.text(depth - 1)} {compare} "
                    f"{self.text(depth - 1)})")
        if kind == 2:
            operand = self.pick(self.integer, self.text)(depth - 1)
            return f"({operand} IS {self.pick('', 'NOT ')}NULL)"
        if kind == 3:
            items = ", ".join(self.integer(min(depth - 1, 1))
                              for __ in range(self.rng.randint(1, 4)))
            return (f"({self.integer(depth - 1)} "
                    f"{self.pick('', 'NOT ')}IN ({items}))")
        if kind == 4:
            return (f"({self.integer(depth - 1)} "
                    f"{self.pick('', 'NOT ')}BETWEEN "
                    f"{self.integer(min(depth - 1, 1))} AND "
                    f"{self.integer(min(depth - 1, 1))})")
        if kind == 5:
            items = ", ".join(self.text_literal()
                              for __ in range(self.rng.randint(1, 3)))
            return (f"({self.text(depth - 1)} "
                    f"{self.pick('', 'NOT ')}IN ({items}))")
        if kind == 6:
            return f"(NOT {self.boolean(depth - 1)})"
        connective = self.pick("AND", "OR")
        operands = f" {connective} ".join(
            self.boolean(depth - 1) for __ in range(self.rng.randint(2, 3)))
        return f"({operands})"

    def expression(self):
        return self.pick(self.integer, self.text, self.boolean)(3)


@pytest.fixture(scope="module")
def engines():
    db = Database()
    db.execute(f"CREATE TABLE t ({COLUMNS})")
    db.session().cursor().executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", ROWS)
    lite = sqlite3.connect(":memory:")
    lite.execute(f"CREATE TABLE t ({COLUMNS})")
    lite.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", ROWS)
    yield db, lite
    lite.close()


def _normalised(rows):
    return sorted(((row_id, int(value) if isinstance(value, bool) else value)
                   for row_id, value in rows), key=repr)


@pytest.mark.parametrize("seed", [20250928, 7])
def test_scalar_expressions_match_sqlite(engines, seed):
    db, lite = engines
    generator = Generator(seed)
    mismatches = []
    for __ in range(EXPRESSIONS_PER_SEED):
        sql = f"SELECT id, {generator.expression()} FROM t"
        expected = _normalised(lite.execute(sql).fetchall())
        produced = _normalised(db.query(sql).rows)
        with force_interpreted():
            interpreted = _normalised(db.query(sql).rows)
        if not produced == interpreted == expected:
            mismatches.append((sql, produced, interpreted, expected))
    assert not mismatches, (
        f"{len(mismatches)} of {EXPRESSIONS_PER_SEED} expressions disagree "
        f"with sqlite3; first: {mismatches[0]}")
