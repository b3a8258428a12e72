"""One workload in one process: set-up, warm-up, measured rounds, checks.

``run.py`` starts this file in a fresh interpreter (``PYTHONHASHSEED=0``,
``PYTHONPATH=<repo>/src``) and reads the one JSON document it prints.
Everything goes through the public ``repro.Database`` / ``Session`` /
``PreparedStatement`` API on the real clock; the engine's ``SimClock``
only decides which scheduler tick fires.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

from repro import Database
from repro.scheduler.periods import BASE_PERIOD

import workloads as wl
from gen import NetmodGenerator, RoundInputs
from layers import SPAN_OF, median_ms, per_layer
from tracing import Summary, Tracer

_now = time.perf_counter_ns
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
TARGET_LAG = "1 minute"  # period = BASE_PERIOD: every DT is due every tick

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The time cap never cuts a run below this many rounds.
MIN_ROUNDS = 5
#: In a traced run every this-many-th round runs with the wrappers out,
#: giving ``harness.trace_overhead_ratio`` an untraced baseline from the
#: same process and the same table sizes.
BASELINE_EVERY = 3

# What a round's numbers are kept for.
WARMUP, BASELINE, MEASURED = "warmup", "baseline", "measured"


class WorkloadRun:
    """Drives one workload and accumulates samples, counts and failures."""

    def __init__(self, workload: wl.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.tracer: Tracer | None = None
        #: Set while the tracer's wrappers are in (measured traced rounds).
        self.tracing = False
        #: kind -> nanoseconds per operation, over the measured rounds.
        self.samples: dict[str, list[int]] = defaultdict(list)
        self._current: dict[str, list[int]] = defaultdict(list)
        self.round_ns: list[int] = []
        self.baseline_ns: list[int] = []
        self.round_changes: list[int] = []
        self.dml_rows = 0  # rows the measured DML statements changed
        self.records: list = []  # RefreshRecords of the measured rounds
        self.attempted = 0
        self.failures: list[str] = []
        self.db: Database | None = None
        self.gen: NetmodGenerator | None = None
        #: ``durability_status()["recovery"]`` of the reopen, once it ran.
        self.recovery: dict = {}
        self.path = (os.path.join(OUT_DIR, f"db-{workload.name}-{os.getpid()}")
                     if workload.durable else None)

    # -- timing --------------------------------------------------------------

    def _timed(self, kind: str, function, *args) -> None:
        """Run one operation on the real clock; a raised exception is a
        failed operation, recorded and survived."""
        self.attempted += 1
        span = self.tracer.begin(SPAN_OF[kind]) if self.tracing else None
        start = _now()
        try:
            function(*args)
        except Exception as exc:  # boundary: the run must report, not die
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.failures.append(
                f"{kind}: {type(exc).__name__}: {str(exc)[:200]} "
                f"({os.path.basename(where.filename)}:{where.lineno})")
        elapsed = _now() - start
        if span is not None:
            self.tracer.end(span)
        self._current[kind].append(elapsed)

    def _check(self, name: str, function) -> None:
        """One correctness check, outside every timed section."""
        self.attempted += 1
        try:
            problem = function()
        except Exception as exc:  # AssertionError from check_dvs included
            problem = f"{type(exc).__name__}: {str(exc)[:300]}"
        if problem:
            self.failures.append(f"check {name}: {problem}")

    def _check_dvs(self, label: str) -> None:
        """The paper's section 6.1 assertion on every DT of ``self.db``."""
        db = self.db
        for name in self.workload.tables:
            self._check(f"{label} {name}",
                        lambda name=name: None if db.check_dvs(name)
                        else "check_dvs returned False")

    # -- set-up --------------------------------------------------------------

    def setup(self) -> int:
        """Create tables, bulk load, create and initialise every DT.
        Returns the elapsed nanoseconds."""
        workload = self.workload
        gen = NetmodGenerator(self.seed, workload.n_instances,
                              workload.n_events)
        instances = gen.instances()
        events = gen.initial_events()
        if self.path is not None:
            os.makedirs(self.path)
        gc.collect()
        start = _now()
        db = (Database(path=self.path, durability="fsync")
              if self.path is not None else Database())
        db.create_warehouse("bench_wh")
        for ddl in wl.BASE_TABLES:
            db.execute(ddl)
        db.prepare(wl.INSERT_INSTANCE).executemany(instances)
        self._ingest = db.prepare(wl.INSERT_EVENT)
        self._ingest.executemany(events)
        for name in workload.tables:
            db.create_dynamic_table(name, wl.DYNAMIC_TABLES[name][0],
                                    TARGET_LAG, "bench_wh")
        elapsed = _now() - start
        self._dml = {key: db.prepare(sql) for key, sql in wl.DML.items()}
        self._queries = {key: db.prepare(sql)
                         for key, sql in wl.QUERIES.items()}
        self.db, self.gen = db, gen
        return elapsed

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)

    # -- one round -----------------------------------------------------------

    def round(self, index: int, mode: str) -> None:
        db, tracer = self.db, self.tracer
        self.tracing = mode == MEASURED and tracer is not None
        if self.tracing:
            tracer.install()
            tracer.round_id = index
        self._current = defaultdict(list)
        histories = [(dt, len(dt.refresh_history))
                     for dt in db.dynamic_tables()]
        try:
            start = _now()
            span = tracer.begin("harness.generator") if self.tracing else None
            inputs: RoundInputs = self.gen.round(index, self.workload.mix)
            if span is not None:
                tracer.end(span)
            self._current["generator"].append(_now() - start)

            self._timed("ingest", self._ingest.executemany, inputs.events)
            for key, binds, __ in inputs.dml:
                self._timed("dml", self._dml[key].execute, binds)
            self._timed("tick", db.run_for, BASE_PERIOD)
            for kind in ("lookup", "range", "scan"):
                query = self._queries[kind].query
                for binds in getattr(inputs, kind + "s"):
                    self._timed(kind, query, binds)
            for literal in inputs.adhocs:
                self._timed("adhoc", db.query, wl.ADHOC.format(k=literal))

            # Harness-scheduled GC, inside the round's wall time: automatic
            # collection is off, so pauses land here and not at random
            # inside whichever refresh allocates next.
            full = (index + 1) % wl.FULL_GC_EVERY == 0
            self._timed("gc_full" if full else "gc", gc.collect,
                        2 if full else 1)
            elapsed = _now() - start
        finally:
            if self.tracing:
                tracer.round_id = -1
                tracer.uninstall()
                self.tracing = False

        for dt, before in histories:
            new = dt.refresh_history[before:]
            self.attempted += 1
            problem = self._refresh_problem(dt.name, new)
            if problem:
                self.failures.append(f"refresh {dt.name} round {index}: "
                                     f"{problem}")
            if mode == MEASURED:
                self.records.extend(new)
        if mode == MEASURED:
            for kind, values in self._current.items():
                self.samples[kind] += values
            self.round_ns.append(elapsed)
            self.round_changes.append(inputs.changes)
            self.dml_rows += sum(rows for __, __, rows in inputs.dml)
        elif mode == BASELINE:
            self.baseline_ns.append(elapsed)

        every = self.workload.checkpoint_every
        if every and (index + 1 - wl.WARMUP_ROUNDS) % every == 0:
            # Between rounds: in the measured window, in no round's time.
            self._timed("checkpoint", db.checkpoint)
            self.samples["checkpoint"] += self._current.pop("checkpoint")

    @staticmethod
    def _refresh_problem(name: str, new: list) -> str | None:
        """A silent FULL/REINITIALIZE fallback, a retry or an error is a
        failure even when the contents end up right."""
        if len(new) != 1:
            return f"{len(new)} refresh records in one tick, expected 1"
        record = new[0]
        expected = wl.DYNAMIC_TABLES[name][1]
        if record.error is not None:
            return record.error
        if record.retries:
            return f"{record.retries} retries"
        if record.action is None or record.action.name != expected:
            return f"action {record.action}, expected {expected}"
        return None

    def run_rounds(self, rounds: int, seconds: float) -> None:
        """Warm up, then run ``rounds`` rounds, stopping early (but not
        below MIN_ROUNDS) once ``seconds`` have passed."""
        for index in range(wl.WARMUP_ROUNDS):
            self.round(index, WARMUP)
        gc.collect()
        deadline = time.perf_counter() + seconds
        for offset in range(rounds):
            if offset >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
            baseline = (self.tracer is not None
                        and offset % BASELINE_EVERY == 0)
            self.round(wl.WARMUP_ROUNDS + offset,
                       BASELINE if baseline else MEASURED)

    # -- correctness ---------------------------------------------------------

    def check_outputs(self) -> None:
        self._check_dvs("dvs")
        self._check("model per_instance", self._model_problem)
        if self.workload.durable:
            self._check_recovery()

    def _model_problem(self) -> str | None:
        rows = self.db.query(
            "SELECT dst, blocks, w FROM per_instance").rows
        actual = {dst: (blocks, w) for dst, blocks, w in rows}
        expected = self.gen.expected_per_instance()
        if len(rows) != len(actual):
            return "duplicate dst rows in per_instance"
        if actual != expected:
            wrong = [dst for dst in expected.keys() | actual.keys()
                     if expected.get(dst) != actual.get(dst)]
            return (f"{len(wrong)} of {len(expected)} groups differ from "
                    f"the model, e.g. dst {sorted(wrong)[:3]}")
        return None

    def _check_recovery(self) -> None:
        """Close, reopen from the WAL + newest checkpoint, and require the
        same row counts and DVS on every DT."""
        names = ["instances", "events", *self.workload.tables]

        def row_counts() -> dict[str, int]:
            return {name: self.db.query(
                        f"SELECT count(*) FROM {name}").rows[0][0]
                    for name in names}

        counts = row_counts()
        self.db.close()
        self.attempted += 1
        start = _now()
        try:
            reopened = Database(path=self.path)
        except Exception as exc:
            self.failures.append(
                f"recover: {type(exc).__name__}: {str(exc)[:300]}")
            self.db = None
            return
        self.samples["recover"].append(_now() - start)
        self.db = reopened
        self.recovery = reopened.durability_status()["recovery"]

        def count_problem() -> str | None:
            after = row_counts()
            return None if after == counts else f"{after} != {counts}"

        self._check("recovered row counts", count_problem)
        self._check_dvs("recovered dvs")

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, setup_ns: list[int], peak_rss_kb: int) -> dict:
        samples = self.samples
        round_s = statistics.median(self.round_ns) / 1e9
        ingest_s = statistics.median(samples["ingest"]) / 1e9
        mix = self.workload.mix
        return {
            "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
            "changes_per_s": (
                statistics.median(self.round_changes) / round_s, "rows/s"),
            "refresh_p50_ms": (median_ms(samples["tick"]), "ms"),
            "dml_p50_ms": (median_ms(samples["dml"]), "ms"),
            "ingest_rows_per_s": (mix.insert / ingest_s, "rows/s"),
            "lookup_p50_ms": (median_ms(samples["lookup"]), "ms"),
            "range_p50_ms": (median_ms(samples["range"]), "ms"),
            "scan_p50_ms": (median_ms(samples["scan"]), "ms"),
            "adhoc_p50_ms": (median_ms(samples["adhoc"]), "ms"),
            "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        }

    def checkpoint_mb(self) -> float:
        if self.path is None:
            return 0.0
        sizes = [os.path.getsize(os.path.join(self.path, name))
                 for name in os.listdir(self.path) if "checkpoint" in name]
        return max(sizes, default=0) / 2**20


def run(workload: wl.Workload, seed: int, seconds: float,
        rounds: int | None, trace: bool) -> dict:
    gc.disable()
    os.makedirs(OUT_DIR, exist_ok=True)
    harness = WorkloadRun(workload, seed)
    try:
        setup_ns = []
        for attempt in range(1 if trace else SETUPS):
            if attempt:
                harness.teardown()
            setup_ns.append(harness.setup())
        if trace:
            harness.tracer = Tracer()
        harness.run_rounds(workload.rounds if rounds is None else rounds,
                           seconds)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        harness.check_outputs()
        if trace:
            summary = Summary(harness.tracer.spans)
            metrics = per_layer(harness, summary)
            harness.tracer.write(
                os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
                {"workload": workload.name, "seed": seed,
                 "rounds": len(harness.round_ns),
                 "summary": summary.table()})
        else:
            metrics = harness.end_to_end(setup_ns, peak_rss_kb)
    finally:
        harness.teardown()
    return {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "rounds": len(harness.round_ns),
        "attempted": harness.attempted, "failed": len(harness.failures),
        "failures": harness.failures[:20],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int,
                        help="instead of the workload's own round count")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale-divisor", type=int, default=1)
    args = parser.parse_args()
    workload = wl.WORKLOADS[args.workload].scaled(args.scale_divisor)
    result = run(workload, args.seed, args.seconds, args.rounds,
                 bool(args.trace))
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
