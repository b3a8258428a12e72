"""Experiment cost-model: fixed + variable incremental cost (section 3.3.2).

Paper: "we can simplify it to fixed and variable costs ... variable costs
scale linearly with the amount of changed data in the sources."

We measure *actual Python runtime* of differentiation over a
filter+project plan while sweeping the delta size with the table size
fixed, then fit the fixed/variable split. The pytest-benchmark entries
time representative delta sizes; the report prints the sweep.
"""

import time

from repro.engine.relation import Relation
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
TABLE_ROWS = 20_000

PLAN = build_plan(parse_query(
    "SELECT id, grp, val * 2 doubled FROM items WHERE val >= 0"), PROVIDER)


def _base_relation():
    rows = [(i, f"g{i % 50}", i % 1000) for i in range(TABLE_ROWS)]
    return Relation(ITEMS, rows, [f"b:{i}" for i in range(TABLE_ROWS)])


BASE = _base_relation()


def _source_for_delta(delta_rows: int):
    added = [(f"b:n{offset}",
              (TABLE_ROWS + offset, f"g{offset % 50}", offset))
             for offset in range(delta_rows)]
    delta = ChangeSet(Change(Action.INSERT, row_id, row)
                      for row_id, row in added)
    new_relation = Relation(ITEMS, BASE.rows + [row for __, row in added],
                            BASE.row_ids + [row_id for row_id, __ in added])
    return DictDeltaSource({"items": BASE}, {"items": new_relation},
                           {"items": delta})


def _run(source):
    return differentiate(PLAN, source)


def test_small_delta(benchmark):
    source = _source_for_delta(10)
    changes, stats = benchmark(_run, source)
    assert len(changes) == 10
    assert stats.consolidation_skipped  # insert-only fast path


def test_large_delta(benchmark):
    source = _source_for_delta(10_000)
    changes, __ = benchmark(_run, source)
    assert len(changes) == 10_000


def test_linearity_report(benchmark):
    sizes = [10, 100, 1_000, 5_000, 10_000]
    # The fixed cost, measured directly: differentiating an *empty*
    # interval does only the per-refresh work (dispatch, rule lookup,
    # the consolidation-skip analysis) and touches no rows.
    empty_source = _source_for_delta(0)
    differentiate(PLAN, empty_source)
    fixed_samples = []
    for __ in range(20):
        start = time.perf_counter()
        differentiate(PLAN, empty_source)
        fixed_samples.append(time.perf_counter() - start)
    fixed_cost = min(fixed_samples)

    timings = []
    for size in sizes:
        source = _source_for_delta(size)
        differentiate(PLAN, source)  # warmup
        samples = []
        for __ in range(7):
            start = time.perf_counter()
            differentiate(PLAN, source)
            samples.append(time.perf_counter() - start)
        timings.append(min(samples))  # min is robust to scheduler noise

    benchmark(_run, _source_for_delta(1_000))

    # Linearity: per-row cost between consecutive sizes stays bounded
    # (ratio of marginal costs within a small factor).
    marginal_low = (timings[2] - timings[0]) / (sizes[2] - sizes[0])
    marginal_high = (timings[4] - timings[2]) / (sizes[4] - sizes[2])
    assert marginal_high < marginal_low * 5
    # Fixed cost exists and is nonzero, but small relative to real work:
    # an empty-interval refresh costs something, and a 10k-row delta costs
    # far more than the fixed part alone.
    assert fixed_cost > 0
    assert timings[-1] > 10 * fixed_cost

    rows = [[size, f"{elapsed * 1e3:.2f} ms",
             f"{elapsed / size * 1e6:.2f} us/row"]
            for size, elapsed in zip(sizes, timings)]
    emit("cost-model — incremental refresh cost vs delta size "
         f"(table = {TABLE_ROWS} rows)", [
             *table(["delta rows", "differentiation time", "amortized"],
                    rows),
             "",
             f"fitted variable cost ≈ {marginal_high * 1e6:.2f} us/row; "
             f"measured fixed cost (empty interval) ≈ "
             f"{fixed_cost * 1e6:.0f} us",
             "paper: cost = fixed + variable, variable linear in changed "
             "data.",
         ])
