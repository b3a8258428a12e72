"""Stateful incremental aggregation: stateful fold vs. endpoint recompute.

The stateless affected-group rule (the paper's production semantics,
section 5.5.3) recomputes every touched group at both interval endpoints,
so refresh cost scales with the *size of the touched groups*: one
inserted row into a huge group re-aggregates the whole group twice. The
stateful rule (:mod:`repro.ivm.aggstate`) folds the delta into per-group
retractable accumulators — O(|delta|) regardless of group sizes.

This benchmark measures exactly that asymmetry on a **skewed-group
workload**: a table dominated by a few huge groups, refreshed with small
deltas that always touch the huge groups. The baseline is the identical
differentiation with :func:`~repro.ivm.aggstate.force_stateless` pinned
(the endpoint-recompute path is kept alive in the same binary precisely
for this ablation); change sets are asserted identical between modes on
every refresh.

Acceptance: >= 5x incremental-refresh speedup on the huge-group update
path. The workload's shape (query, table and group sizes, refreshes,
delta sizes) lands in the committed ``BENCH_agg_state.json``, so a run
leaves it byte-identical; wall-clock timings, throughputs and the
speedup go to the ignored ``results.txt``.

Run:  PYTHONPATH=src python benchmarks/bench_t12_stateful_agg.py
"""

import json
import os
import sys
import time

from repro.ivm.aggstate import AggStateStore, force_stateless
from repro.ivm.differentiator import differentiate
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.plan.builder import DictSchemaProvider, build_plan
from repro.sql.parser import parse_query
from repro.storage.table import StagedWrite, VersionedTable
from repro.streams.changes import changes_between
from repro.txn.hlc import HlcTimestamp
from repro.txn.manager import VersionReader

sys.path.insert(0, os.path.dirname(__file__))
from reporting import emit, emit_json  # noqa: E402

ITEMS = schema_of(("id", SqlType.INT), ("grp", SqlType.TEXT),
                  ("val", SqlType.INT), table="items")
PROVIDER = DictSchemaProvider({"items": ITEMS})

#: The skew: two huge groups hold most rows; the long tail is small.
HUGE_GROUPS = ("hot0", "hot1")
HUGE_ROWS_EACH = 60_000
SMALL_GROUPS = 50
SMALL_ROWS_EACH = 100
TABLE_ROWS = len(HUGE_GROUPS) * HUGE_ROWS_EACH + SMALL_GROUPS * SMALL_ROWS_EACH

AGG_SQL = ("SELECT grp, count(*) n, sum(val) s, min(val) lo, max(val) hi, "
           "avg(val) m FROM items GROUP BY grp")
AGG_PLAN = build_plan(parse_query(AGG_SQL), PROVIDER)

#: Per refresh: a small delta that always lands in the huge groups.
REFRESHES = 5
DELTA_INSERTS = 200
DELTA_DELETES = 100


def _grp(index: int) -> str:
    huge_span = len(HUGE_GROUPS) * HUGE_ROWS_EACH
    if index < huge_span:
        return HUGE_GROUPS[index % len(HUGE_GROUPS)]
    return f"g{index % SMALL_GROUPS}"


def _make_table() -> VersionedTable:
    table = VersionedTable("items", ITEMS, 1)
    indexes = range(TABLE_ROWS)
    table.apply(StagedWrite(
        inserts=[list(indexes), [_grp(index) for index in indexes],
                 [index % 10_000 for index in indexes]]),
        HlcTimestamp(10))
    return table


class _IntervalSource:
    """DeltaSource over one table's (old, new) version interval, backed by
    the real change-query path (partition-set difference)."""

    def __init__(self, table, old, new):
        self._table, self._old, self._new = table, old, new
        self.old = VersionReader(lambda name: (table, old))
        self.new = VersionReader(lambda name: (table, new))

    def scan_delta(self, name):
        return changes_between(self._table, self._old, self._new)


def _canon(changes):
    return sorted((change.action.value, change.row_id, change.row)
                  for change in changes)


def _refresh_cycle(stateful: bool) -> tuple[float, list]:
    """One table lifetime: REFRESHES refreshes of small huge-group deltas.

    Returns (differentiation seconds, canonical change sets per refresh).
    The timed region excludes the one-time lazy state initialization
    (paid on a warm-up refresh), matching steady-state refresh cost.
    """
    table = _make_table()
    store = AggStateStore() if stateful else None
    total = 0.0
    outputs = []
    ts = 20
    for round_index in range(-1, REFRESHES):  # round -1 warms up
        old = table.current_version
        base = (round_index + 1) * DELTA_INSERTS
        # Deletes land inside the huge groups; inserts extend them.
        deletes = {f"b1:{base + offset}" for offset in range(DELTA_DELETES)}
        new = range(DELTA_INSERTS)
        inserts = [[TABLE_ROWS + base + j for j in new],
                   [HUGE_GROUPS[j % len(HUGE_GROUPS)] for j in new],
                   [j % 10_000 for j in new]]
        table.apply(StagedWrite(inserts=inserts, deletes=deletes),
                    HlcTimestamp(ts))
        ts += 10
        source = _IntervalSource(table, old, table.current_version)
        start = time.perf_counter()
        if store is not None:
            store.begin_refresh(("bench",), old.index)
            changes, stats = differentiate(AGG_PLAN, source, agg_state=store)
            store.commit_refresh(table.current_version.index)
        else:
            with force_stateless():
                changes, stats = differentiate(AGG_PLAN, source)
        elapsed = time.perf_counter() - start
        if round_index >= 0:
            total += elapsed
            outputs.append(_canon(changes))
            if store is not None:
                assert stats.agg_stateful_folds == 1, stats
                assert stats.endpoint_evals == 0, stats  # pure fold
    if store is not None:
        assert not store.invalidations, store.invalidations
    return total, outputs


def _measure() -> dict:
    stateful_samples = [_refresh_cycle(stateful=True) for __ in range(3)]
    stateless_samples = [_refresh_cycle(stateful=False) for __ in range(3)]
    stateful_s = min(seconds for seconds, __ in stateful_samples)
    stateless_s = min(seconds for seconds, __ in stateless_samples)
    # The two strategies must emit identical changes on every refresh.
    assert stateful_samples[0][1] == stateless_samples[0][1]

    delta_rows = REFRESHES * (DELTA_INSERTS + DELTA_DELETES)
    return {
        "query": AGG_SQL,
        "table_rows": TABLE_ROWS,
        "huge_groups": len(HUGE_GROUPS),
        "huge_group_rows": HUGE_ROWS_EACH,
        "small_groups": SMALL_GROUPS,
        "refreshes": REFRESHES,
        "delta_inserts_per_refresh": DELTA_INSERTS,
        "delta_deletes_per_refresh": DELTA_DELETES,
        "stateful_ms": round(stateful_s * 1e3, 2),
        "stateless_ms": round(stateless_s * 1e3, 2),
        "stateful_delta_rows_per_s": round(delta_rows / stateful_s),
        "stateless_delta_rows_per_s": round(delta_rows / stateless_s),
        "speedup": round(stateless_s / stateful_s, 2),
    }


#: The deterministic fields of a result: what the committed snapshot
#: records.
SHAPE = ("query", "table_rows", "huge_groups", "huge_group_rows",
         "small_groups", "refreshes", "delta_inserts_per_refresh",
         "delta_deletes_per_refresh")


def _report(result: dict) -> None:
    emit_json("BENCH_agg_state.json", {
        "scenario": ("stateful accumulator fold vs. endpoint-recompute "
                     "ablation: skewed-group aggregate (two 60k-row "
                     "groups) refreshed with small huge-group deltas"),
        "incremental_refresh": {key: result[key] for key in SHAPE},
        "timings": "see benchmarks/results.txt",
    })
    emit("T12 stateful aggregation ablation", [
        f"{result['refreshes']} refreshes x "
        f"{result['delta_inserts_per_refresh'] + result['delta_deletes_per_refresh']}"
        f" delta rows over {result['table_rows']:,} rows in "
        f"{result['huge_groups']} huge + {result['small_groups']} small groups",
        f"stateful {result['stateful_ms']}ms vs endpoint-recompute "
        f"{result['stateless_ms']}ms -> {result['speedup']}x",
        f"delta rows/s: stateful {result['stateful_delta_rows_per_s']:,}, "
        f"endpoint-recompute {result['stateless_delta_rows_per_s']:,}",
        "identical change sets asserted across strategies",
    ])


#: Acceptance threshold. The >= 5x criterion holds with a wide margin on
#: an idle machine (a run reports the measured speedup in results.txt),
#: but a wall-clock ratio gate on a noisy shared CI runner would flake, so
#: CI sets a slack value that still catches the stateful path regressing
#: to endpoint-recompute cost.
MIN_SPEEDUP = float(os.environ.get("AGG_STATE_MIN_SPEEDUP", "5.0"))


def test_stateful_aggregation_speedup():
    result = _measure()
    _report(result)
    assert result["speedup"] >= MIN_SPEEDUP, result


if __name__ == "__main__":
    result = _measure()
    _report(result)
    print(json.dumps(result, indent=2))
