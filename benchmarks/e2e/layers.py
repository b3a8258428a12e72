"""The per-layer metrics of a traced run, one layer per ``src/repro`` package.

Each ``*_ms_per_round`` is a span's **self** time (duration minus its
direct children), summed per round, then the median over the traced
rounds. Counts come from span attributes, ``RefreshRecord`` fields and
``DifferentiationStats``; they repeat exactly for one seed. The README
says which end-to-end metric each of these should move, on which workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import TYPE_CHECKING

import workloads as wl

if TYPE_CHECKING:
    from tracing import Summary
    from worker import WorkloadRun

READ_KINDS = ("lookup", "range", "scan", "adhoc")
#: Operation kind -> the span the harness opens around it when tracing.
SPAN_OF = {"ingest": "api.ingest", "dml": "api.dml", "tick": "scheduler.tick",
           "gc": "runtime.gc", "gc_full": "runtime.gc",
           **{kind: f"api.{kind}" for kind in READ_KINDS}}


def median_ms(samples_ns: list[int]) -> float:
    return statistics.median(samples_ns) / 1e6 if samples_ns else 0.0


def p90_ms(samples_ns: list[int]) -> float:
    """With fewer than 100 samples fewer than ten lie beyond it: the
    ``_n`` metric beside each p90 says how far to trust it."""
    if not samples_ns:
        return 0.0
    ordered = sorted(samples_ns)
    return ordered[min(len(ordered) - 1, (len(ordered) * 9) // 10)] / 1e6


def ratio(numerator: float, denominator: float) -> float:
    """0 when the workload never exercises the denominator."""
    return numerator / denominator if denominator else 0.0


def per_layer(run: "WorkloadRun", s: "Summary",
              ) -> dict[str, tuple[float, str]]:
    samples, mix, records = run.samples, run.workload.mix, run.records
    counters = run.tracer.counters
    rounds = len(run.round_ns)
    changes = sum(run.round_changes)
    round_ms = median_ms(run.round_ns)
    dml_per_round = len(samples["dml"]) / rounds
    reads_per_round = sum(len(samples[kind]) for kind in READ_KINDS) / rounds
    commits = s.calls("txn.commit")
    appends = s.calls("durability.wal_append")
    parses = s.calls("sql.parse")
    cache_hits = counters["plan.cache.hits"]
    ivm = [record.ivm_stats for record in records
           if record.ivm_stats is not None]
    actions: dict[str, int] = defaultdict(int)
    for record in records:
        actions[record.action.name if record.action else "NONE"] += 1
    events = run.db.catalog.versioned_table("events")

    def self_ms(*names: str) -> tuple[float, str]:
        return s.self_ms_per_round(*names), "ms"

    def per_round(total: float, unit: str) -> tuple[float, str]:
        return ratio(total, rounds), unit

    m: dict[str, tuple[float, str]] = {
        # api: what the statement layer adds on top of txn/storage/engine.
        "api.dml.self_ms_per_stmt": (
            ratio(s.self_ms_per_round("api.dml"), dml_per_round), "ms"),
        "api.dml.rows_scanned_per_stmt": (
            ratio(s.attr("txn.scan", "rows"), len(samples["dml"])), "rows"),
        "api.dml.rows_scanned_per_row_changed": (
            ratio(s.attr("txn.scan", "rows"), run.dml_rows), "ratio"),
        "api.ingest.self_ms_per_krow": (
            ratio(s.self_ms_per_round("api.ingest"), mix.insert / 1000), "ms"),
        "api.query.self_ms_per_call": (
            ratio(s.self_ms_per_round(*(SPAN_OF[k] for k in READ_KINDS)),
                  reads_per_round), "ms"),
        # sql / plan
        "sql.parse.ms_per_call": (
            ratio(s.self_ms_total("sql.parse"), parses), "ms"),
        "sql.parse.calls_per_round": per_round(parses, "count"),
        "plan.build.ms_per_call": (
            ratio(s.self_ms_total("plan.build", "plan.optimize"),
                  s.calls("plan.build")), "ms"),
        "plan.cache.hit_ratio": (
            ratio(cache_hits, cache_hits + counters["plan.cache.misses"]),
            "ratio"),
        # engine: the executor, by who called it.
        "engine.evaluate.query_ms_per_round": self_ms("engine.evaluate.query"),
        "engine.evaluate.refresh_ms_per_round":
            self_ms("engine.evaluate.refresh"),
        "engine.evaluate.rows_out_per_round": per_round(
            s.attr("engine.evaluate.query", "rows_out")
            + s.attr("engine.evaluate.refresh", "rows_out"), "rows"),
        # storage
        "storage.apply.self_ms_per_round": self_ms("storage.apply"),
        "storage.build_partitions.self_ms_per_round":
            self_ms("storage.build_partitions"),
        "storage.build_partitions.rows_per_round": per_round(
            s.attr("storage.build_partitions", "rows"), "rows"),
        "storage.partitions_built_per_round": per_round(
            s.attr("storage.build_partitions", "partitions"), "count"),
        "storage.scan.self_ms_per_round": self_ms("storage.scan"),
        "storage.scan.pruned_ratio": (
            ratio(counters["storage.partitions_pruned"],
                  counters["storage.partitions_considered"]), "ratio"),
        "storage.events.partitions_final": (events.partition_count(), "count"),
        "storage.events.versions_final": (events.version_count, "count"),
        # txn
        "txn.commit.self_ms_per_commit": (
            ratio(s.self_ms_total("txn.commit"), commits), "ms"),
        "txn.commit.count_per_round": per_round(commits, "count"),
        "txn.stage.self_ms_per_round": self_ms("txn.stage"),
        "txn.conflicts": (s.errors["txn.commit", "LockConflict"], "count"),
        # streams / ivm
        "streams.changes_between.self_ms_per_round":
            self_ms("streams.changes_between"),
        "streams.changes_between.rows_out_per_round": per_round(
            s.attr("streams.changes_between", "rows_out"), "rows"),
        "ivm.differentiate.self_ms_per_round": self_ms("ivm.differentiate"),
        "ivm.consolidate.self_ms_per_round": self_ms("ivm.consolidate"),
        "ivm.consolidate.calls_per_round": (
            s.calls_per_round("ivm.consolidate"), "count"),
        "ivm.consolidate.rows_out_over_in": (
            ratio(s.attr("ivm.consolidate", "rows_out"),
                  s.attr("ivm.consolidate", "rows_in")), "ratio"),
    }
    for field in ("delta_rows_in", "endpoint_rows", "join_input_rows",
                  "agg_stateful_folds", "agg_recomputes"):
        m[f"ivm.{field}_per_round"] = per_round(
            sum(getattr(stats, field) for stats in ivm),
            "count" if field.startswith("agg") else "rows")
    # core: which DT owns the tick, and what a propagated change costs.
    for name in wl.DYNAMIC_TABLES:
        durations = s.by_dt.get(("core.refresh", name), [])
        m[f"core.refresh.{name}.p50_ms"] = (
            statistics.median(durations) if durations else 0.0, "ms")
    m.update({
        "core.refresh.self_ms_per_round": self_ms("core.refresh"),
        "core.refresh.rows_scanned_per_change": (
            ratio(sum(r.source_rows_scanned for r in records), changes),
            "ratio"),
        "core.refresh.count.incremental": (actions["INCREMENTAL"], "count"),
        "core.refresh.count.full": (actions["FULL"], "count"),
        "core.refresh.count.no_data": (actions["NO_DATA"], "count"),
        "core.refresh.count.reinitialize": (actions["REINITIALIZE"], "count"),
        "core.refresh.retries": (sum(r.retries for r in records), "count"),
        "core.refresh.errors": (
            sum(r.error is not None for r in records), "count"),
        # scheduler: run_for minus its core.refresh children.
        "scheduler.tick.self_ms": self_ms("scheduler.tick"),
        "scheduler.tick.p90_ms": (p90_ms(samples["tick"]), "ms"),
        "scheduler.tick.p90_n": (len(samples["tick"]), "count"),
        # durability (all 0 on the in-memory workloads)
        "durability.wal_append.ms_per_commit": (
            ratio(s.self_ms_total("durability.wal_append"), appends), "ms"),
        "durability.wal.bytes_per_change": (
            ratio(s.attr("durability.wal_append", "bytes"), changes), "bytes"),
        "durability.wal.appends_per_round": per_round(appends, "count"),
        "durability.checkpoint.p50_ms": (
            median_ms(samples["checkpoint"]), "ms"),
        "durability.checkpoint.file_mb": (run.checkpoint_mb(), "MB"),
        "durability.recover.ms": (median_ms(samples["recover"]), "ms"),
        "durability.recover.records_replayed": (
            run.recovery.get("records_replayed", 0), "count"),
        # runtime / harness
        "runtime.gc.ms_per_round": per_round(
            (sum(samples["gc"]) + sum(samples["gc_full"])) / 1e6, "ms"),
        "runtime.gc.full_ms": (median_ms(samples["gc_full"]), "ms"),
        "harness.generator_ms_per_round": (
            median_ms(samples["generator"]), "ms"),
        "harness.trace_overhead_ratio": (
            ratio(round_ms, median_ms(run.baseline_ns)), "ratio"),
        # Every span's self time (gc and generator included) over the
        # median round's wall time.
        "harness.attributed_ratio": (
            ratio(s.self_ms_per_round(), round_ms), "ratio"),
        "harness.rounds": (rounds, "count"),
    })
    for kind in ("dml", "ingest", *READ_KINDS):
        m[f"api.{kind}.p90_ms"] = (p90_ms(samples[kind]), "ms")
        m[f"api.{kind}.p90_n"] = (len(samples[kind]), "count")
    return m
