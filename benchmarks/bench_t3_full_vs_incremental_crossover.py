"""Experiment crossover: incremental vs full refresh as churn grows.

Paper (section 6.3): the 67%-below-1% statistic "underscores the
importance of efficient incremental refreshes", while "21% of refreshes
change more than 10% of their DT, highlighting the need to be able to
dynamically choose full refreshes when a large fraction of the data has
changed."

Two query series, measured as actual Python runtime:

* **linear plan** (filter + project): differentiation is truly O(Δ) — at
  0.1% churn incremental wins by orders of magnitude; as churn → 100% the
  delta approaches 2× the table (delete+insert per row) and full
  recomputation wins. This is the crossover the paper's dynamic
  action-choice motivation describes.
* **aggregate plan** (GROUP BY): the affected-group derivative evaluates
  its input at *both interval endpoints* because, per section 5.5.3,
  "none of our derivatives so far reuse the state from preceding data
  timestamps already stored in the DT. They all work by computing changes
  purely in terms of the sources." Incremental cost is therefore bounded
  below by a full input scan — reproducing exactly the limitation the
  paper flags as its top future-work item ("we expect major performance
  opportunities from incorporating a 'previous state'").
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
TABLE_ROWS = 8_000
GROUPS = 400

LINEAR_PLAN = build_plan(parse_query(
    "SELECT id, grp, val * 2 doubled FROM items WHERE val >= 0"), PROVIDER)
AGGREGATE_PLAN = build_plan(parse_query(
    "SELECT grp, count(*) n, sum(val) s FROM items GROUP BY grp"), PROVIDER)


def _base():
    rows = [(i, f"g{i % GROUPS}", i % 100) for i in range(TABLE_ROWS)]
    return Relation(ITEMS, rows, [f"b:{i}" for i in range(TABLE_ROWS)])


BASE = _base()


def _mutated(fraction: float):
    count = int(TABLE_ROWS * fraction)
    delta = []
    pairs = []
    for index, (row_id, row) in enumerate(BASE.pairs()):
        if index < count:
            new_row = (row[0], row[1], row[2] + 1)
            delta.append(Change(Action.DELETE, row_id, row))
            delta.append(Change(Action.INSERT, row_id, new_row))
            pairs.append((row_id, new_row))
        else:
            pairs.append((row_id, row))
    return (Relation(ITEMS, [row for __, row in pairs],
                     [row_id for row_id, __ in pairs]), ChangeSet(delta))


def _time(function, repeats=3):
    function()  # warmup: lazy imports and caches out of the measurement
    samples = []
    for __ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return min(samples)  # min is robust to scheduler noise


def _sweep(plan, fractions):
    incremental = {}
    full = {}
    for fraction in fractions:
        new_relation, delta = _mutated(fraction)
        source = DictDeltaSource({"items": BASE}, {"items": new_relation},
                                 {"items": delta})
        resolver = DictResolver({"items": new_relation})
        incremental[fraction] = _time(lambda: differentiate(plan, source))
        full[fraction] = _time(lambda: evaluate(plan, resolver))
    return incremental, full


def test_crossover(benchmark):
    fractions = [0.001, 0.01, 0.05, 0.25, 1.0]
    linear_incr, linear_full = _sweep(LINEAR_PLAN, fractions)
    agg_incr, agg_full = _sweep(AGGREGATE_PLAN, fractions)

    new_relation, delta = _mutated(0.01)
    source = DictDeltaSource({"items": BASE}, {"items": new_relation},
                             {"items": delta})
    benchmark(lambda: differentiate(LINEAR_PLAN, source))

    # Linear plan: crossover exists.
    assert linear_full[0.001] > 10 * linear_incr[0.001]  # incr dominates
    assert linear_incr[1.0] > linear_full[1.0]           # full wins at 100%
    advantage = [linear_full[f] / linear_incr[f] for f in fractions]
    assert advantage[0] > advantage[-1]

    # Aggregate plan: endpoint evaluation bounds incremental from below —
    # the section 5.5.3 no-state-reuse limitation.
    assert agg_incr[0.001] > 0.3 * agg_full[0.001]

    rows = []
    for fraction in fractions:
        rows.append([
            f"{fraction:.1%}",
            f"{linear_incr[fraction] * 1e3:.2f} ms",
            f"{linear_full[fraction] * 1e3:.2f} ms",
            f"{linear_full[fraction] / linear_incr[fraction]:.1f}x",
            f"{agg_incr[fraction] * 1e3:.2f} ms",
            f"{agg_full[fraction] * 1e3:.2f} ms",
            f"{agg_full[fraction] / agg_incr[fraction]:.1f}x",
        ])
    emit("crossover — incremental vs full refresh "
         f"({TABLE_ROWS} rows, {GROUPS} groups)", [
             *table(["rows changed",
                     "linear incr", "linear full", "speedup",
                     "agg incr", "agg full", "speedup"], rows),
             "",
             "paper shape (linear): incremental dominates at <1% churn; "
             "full wins at ~100% churn.",
             "paper limitation (aggregate): derivatives recompute from "
             "sources (no state reuse, section 5.5.3), so incremental "
             "aggregation pays a full input scan regardless of churn.",
         ])
