"""Experiment window: the changed-partition derivative (section 5.5.1).

Paper: "This derivative works by applying the window function to all
partitions that have changed" — so its cost should scale with the number
of *changed partitions*, not with the table size. We hold the table fixed
(many partitions) and sweep how many partitions a delta touches; the
emitted delta covers exactly the changed partitions, and runtime grows
with the touched-partition count while the full recompute stays flat.

It differentiates over a ``DictDeltaSource``, which has no
micro-partition access, so this measures the rule's *scan* path: the
changed window partitions are found by keying every row of each
endpoint. Over a storage-backed source the same rule probes
micro-partition key indexes instead and reads only the changed window
partitions (``tests/test_key_probe.py`` pins that with exact counts).

The gates are on counted work, which is deterministic: the rows the
derivative re-windows (``DifferentiationStats.delta_rows_out``, its raw
output before consolidation — every row of each changed partition, at
both endpoints) against the full relation's rows. Wall-clock timings
only go to ``results.txt``; on a shared 2-core box their ratios are too
noisy to gate.
"""

import time

from repro.engine.executor import evaluate
from repro.engine.relation import DictResolver, Relation
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.ivm.changes import Action, Change, ChangeSet
from repro.ivm.differentiator import DictDeltaSource, differentiate
from repro.plan.builder import DictSchemaProvider, build_plan
from repro.sql.parser import parse_query

from reporting import emit, table

ITEMS = schema_of(("id", SqlType.INT), ("grp", SqlType.TEXT),
                  ("val", SqlType.INT), table="items")
PROVIDER = DictSchemaProvider({"items": ITEMS})
PARTITIONS = 500
ROWS_PER_PARTITION = 20

PLAN = build_plan(parse_query(
    "SELECT id, grp, sum(val) over (partition by grp order by id) run, "
    "row_number() over (partition by grp order by val, id) rn "
    "FROM items"), PROVIDER)


def _base():
    rows = []
    for partition in range(PARTITIONS):
        for position in range(ROWS_PER_PARTITION):
            rows.append((partition * 1000 + position, f"g{partition}",
                         position * 3))
    return Relation(ITEMS, rows, [f"b:{i}" for i in range(len(rows))])


BASE = _base()


def _source_touching(partitions: int):
    """Insert one row into each of the first `partitions` partitions."""
    added = [(f"b:n{partition}", (partition * 1000 + 999, f"g{partition}", 1))
             for partition in range(partitions)]
    delta = ChangeSet(Change(Action.INSERT, row_id, row)
                      for row_id, row in added)
    new_relation = Relation.from_pairs(ITEMS, list(BASE.pairs()) + added)
    return DictDeltaSource({"items": BASE}, {"items": new_relation},
                           {"items": delta})


def _timed(function, repeats=3):
    function()
    samples = []
    for __ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return min(samples)


def test_one_partition():
    changes, __ = differentiate(PLAN, _source_touching(1))
    touched = {change.row[1] for change in changes}
    assert touched == {"g0"}  # the delta names only the changed partition


def test_scaling_report():
    counts = [1, 10, 50, 200]
    rows = []
    timings = {}
    rewindowed = {}
    for count in counts:
        source = _source_touching(count)
        timings[count] = _timed(lambda: differentiate(PLAN, source))
        changes, stats = differentiate(PLAN, source)
        touched = {change.row[1] for change in changes}
        assert len(touched) == count  # exactly the changed partitions
        rewindowed[count] = stats.delta_rows_out
        rows.append([count, f"{timings[count] * 1e3:.2f} ms",
                     rewindowed[count], len(changes)])

    full_time = _timed(lambda: evaluate(
        PLAN, DictResolver({"items": BASE})))

    # Work grows with touched partitions...
    assert rewindowed[200] > 3 * rewindowed[1]
    # ...and touching few partitions re-windows far fewer rows than
    # recomputing all of them.
    assert rewindowed[1] < len(BASE) / 2

    emit("window — changed-partition derivative "
         f"({PARTITIONS} partitions x {ROWS_PER_PARTITION} rows)", [
             *table(["partitions touched", "differentiation time",
                     "rows re-windowed", "delta rows"], rows),
             "",
             f"full window recompute over all partitions: "
             f"{full_time * 1e3:.2f} ms",
             "paper: the derivative applies the window function to all "
             "partitions that have changed — and only those.",
         ])
