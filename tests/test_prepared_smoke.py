"""Perf smoke check: prepared statements skip parse + optimize.

PR 1 added a plan cache keyed by (query text, catalog epoch); the prepared
statement API exploits it across repeat executions. This check runs the
same point-lookup query N times two ways — as fresh ``query()`` calls
(each paying tokenize + parse + bind + optimize) and as one
:class:`~repro.api.prepared.PreparedStatement` re-executed with new binds
(plan-cache hit, zero frontend work) — and asserts the prepared path is
at least 2x faster. The measured throughputs go to the ignored
``benchmarks/results.txt``; the tracked ``benchmarks/BENCH_prepared.json``
records only the deterministic scenario and its gate, so a tier-1 run
leaves the tree clean.

Runs as part of tier-1 (it is fast); deselect with ``-m "not perf"``.
"""

import os
import sys
import time

import pytest

from repro import Database

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "benchmarks"))
from reporting import emit, emit_json  # noqa: E402

pytestmark = pytest.mark.perf

TABLE_ROWS = 100
EXECUTIONS = 300
#: The acceptance bar: plan-cache hits make re-execution >= 2x faster.
MIN_SPEEDUP = 2.0

QUERY_TEMPLATE = ("SELECT id, grp, val * 2 doubled FROM items "
                  "WHERE val >= {} AND id < 10000")
PREPARED_QUERY = ("SELECT id, grp, val * 2 doubled FROM items "
                  "WHERE val >= ? AND id < 10000")


@pytest.fixture
def db():
    database = Database()
    database.create_warehouse("wh")
    database.execute("CREATE TABLE items (id int, grp text, val int)")
    database.execute("INSERT INTO items VALUES " + ", ".join(
        f"({i}, 'g{i % 10}', {i % 100})" for i in range(TABLE_ROWS)))
    return database


def test_prepared_reexecution_at_least_2x_fresh_query(db):
    prepared = db.prepare(PREPARED_QUERY)

    # Warm both paths once (first prepared execution builds the plan).
    baseline = db.query(QUERY_TEMPLATE.format(0)).rows
    assert prepared.query((0,)).rows == baseline

    start = time.perf_counter()
    for i in range(EXECUTIONS):
        db.query(QUERY_TEMPLATE.format(i % 50))
    fresh_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    for i in range(EXECUTIONS):
        prepared.query((i % 50,))
    prepared_elapsed = time.perf_counter() - start

    # Both paths agree on results for every bind.
    for bound in (0, 17, 49):
        assert sorted(prepared.query((bound,)).rows) == \
            sorted(db.query(QUERY_TEMPLATE.format(bound)).rows)

    speedup = fresh_elapsed / prepared_elapsed
    emit_json("BENCH_prepared.json", {
        "scenario": ("point lookup re-executed with varying binds: "
                     "prepared statement vs fresh query()"),
        "query": PREPARED_QUERY,
        "table_rows": TABLE_ROWS,
        "executions": EXECUTIONS,
        "min_speedup": MIN_SPEEDUP,
    })
    emit("prepared statement re-execution (tier-1 perf smoke)", [
        f"fresh query():      {EXECUTIONS / fresh_elapsed:10.1f} stmts/s",
        f"prepared statement: {EXECUTIONS / prepared_elapsed:10.1f} stmts/s",
        f"speedup:            {speedup:10.2f}x (gate >= {MIN_SPEEDUP}x)",
    ])

    assert speedup >= MIN_SPEEDUP, (
        f"prepared re-execution only {speedup:.2f}x faster "
        f"(fresh {fresh_elapsed:.4f}s vs prepared {prepared_elapsed:.4f}s)")
