"""Outside-in span tracing for the traced run (``--trace 1``).

The engine has no wall-clock instrumentation, so the benchmark wraps each
layer's public entry points *at the name the caller resolves* (modules
use ``from x import y``, so the name to patch is the importing module's)
and records a span per call. Nothing is patched unless
:meth:`Tracer.install` runs, and :meth:`Tracer.uninstall` restores every
original.

A span is ``[name, start_ns, end_ns, parent_id, round_id, attrs]``; a
span's id is its index in ``Tracer.spans``; spans of one round share
``round_id``. A span's **self time** is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Optional

import repro.api.prepared as prepared_mod
import repro.api.session as session_mod
import repro.core.refresh as refresh_mod
import repro.ivm.differentiator as differentiator_mod
import repro.storage.table as table_mod
import repro.streams.changes as streams_mod
from repro.core.refresh import RefreshEngine
from repro.durability.manager import DurabilityManager
from repro.durability.wal import WriteAheadLog
from repro.plan.cache import PlanCache
from repro.storage.partition import Partition
from repro.storage.table import VersionedTable
from repro.txn.manager import Transaction

NAME, START, END, PARENT, ROUND, ATTRS = range(6)
SPAN_COLUMNS = ("name", "start_ns", "end_ns", "parent_id", "round_id",
                "attrs")

_now = time.perf_counter_ns


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        #: Round the next span belongs to; -1 outside any round.
        self.round_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, attrs: Optional[dict] = None) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        self.spans.append([name, _now(), 0, parent, self.round_id, attrs])
        return span_id

    def end(self, span_id: int) -> None:
        self.spans[span_id][END] = _now()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, owner: object, attr: str, name: str,
              attrs_of: Optional[Callable[[tuple, object], dict]] = None,
              ) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = self.begin(name)
            try:
                result = original(*args, **kwargs)
                if attrs_of is not None:
                    self.spans[span_id][ATTRS] = attrs_of(args, result)
                return result
            except BaseException as exc:
                self.spans[span_id][ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                self.end(span_id)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        wrap = self._wrap

        def rows_out(__, result):
            return {"rows_out": len(result)}

        # sql: every parse on the statement path (tokenize included).
        wrap(session_mod, "parse_prepared", "sql.parse")
        wrap(session_mod, "parse_statements", "sql.parse")
        # plan: bind + optimize, wherever a statement or refresh plans.
        for module in (session_mod, prepared_mod, refresh_mod):
            wrap(module, "build_plan", "plan.build")
            wrap(module, "optimize", "plan.optimize")
        self._count_plan_cache()
        # engine: the executor, split by who called it.
        wrap(session_mod, "evaluate", "engine.evaluate.query", rows_out)
        wrap(refresh_mod, "evaluate", "engine.evaluate.refresh", rows_out)
        wrap(differentiator_mod, "evaluate", "engine.evaluate.refresh",
             rows_out)
        # storage
        wrap(VersionedTable, "apply", "storage.apply")
        wrap(table_mod, "build_partitions", "storage.build_partitions",
             lambda args, result: {"rows": len(args[0]),
                                   "partitions": len(result)})
        wrap(VersionedTable, "relation", "storage.scan")
        wrap(VersionedTable, "relation_pruned", "storage.scan")
        self._count_pruning()
        # txn
        wrap(Transaction, "commit", "txn.commit")
        for method in ("scan", "scan_pruned"):
            wrap(Transaction, method, "txn.scan",
                 lambda __, result: {"rows": len(result)})
        for method in ("insert_rows", "delete_rows", "update_rows",
                       "stage_changeset"):
            wrap(Transaction, method, "txn.stage")
        # streams / ivm / core
        wrap(refresh_mod, "changes_between", "streams.changes_between",
             rows_out)
        wrap(refresh_mod, "differentiate", "ivm.differentiate")
        for module in (differentiator_mod, streams_mod):
            wrap(module, "consolidate", "ivm.consolidate",
                 lambda args, result: {"rows_in": len(args[0]),
                                       "rows_out": len(result)})
        wrap(RefreshEngine, "refresh", "core.refresh",
             lambda args, __: {"dt": args[1].name})
        # durability
        self._wrap_wal_append()
        wrap(DurabilityManager, "checkpoint", "durability.checkpoint")

    def _count_plan_cache(self) -> None:
        original = PlanCache.get
        counters = self.counters

        @functools.wraps(original)
        def counted(cache, key):
            plan = original(cache, key)
            counters["plan.cache.hits" if plan is not None
                     else "plan.cache.misses"] += 1
            return plan

        self._patches.append((PlanCache, "get", original))
        PlanCache.get = counted

    def _count_pruning(self) -> None:
        # Called once per partition per pruned scan: counted, not spanned.
        original = Partition.might_match
        counters = self.counters

        @functools.wraps(original)
        def counted(partition, bounds):
            keep = original(partition, bounds)
            counters["storage.partitions_considered"] += 1
            if not keep:
                counters["storage.partitions_pruned"] += 1
            return keep

        self._patches.append((Partition, "might_match", original))
        Partition.might_match = counted

    def _wrap_wal_append(self) -> None:
        original = WriteAheadLog.append
        tracer = self

        @functools.wraps(original)
        def traced(wal, payload):
            before = wal.position()
            span_id = tracer.begin("durability.wal_append")
            try:
                record = original(wal, payload)
                tracer.spans[span_id][ATTRS] = {
                    "bytes": record.end_offset - before}
                return record
            finally:
                tracer.end(span_id)

        self._patches.append((WriteAheadLog, "append", original))
        WriteAheadLog.append = traced

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "columns": SPAN_COLUMNS,
                       "counters": dict(self.counters),
                       "spans": self.spans}, handle, separators=(",", ":"))


class Summary:
    """Per-round self time, calls and attribute sums by span name, over
    the spans that belong to a round."""

    def __init__(self, spans: list[list]):
        child_ns = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        self.rounds = sorted({span[ROUND] for span in spans
                              if span[ROUND] >= 0})
        # name -> round -> [self_ns, calls]
        self._cells: dict[str, dict[int, list[int]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0]))
        # (name, attr) -> total over all rounds
        self._attrs: dict[tuple[str, str], int] = defaultdict(int)
        #: (name, exception type name) -> spans that ended by raising it.
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        #: (name, dt) -> durations in ms, for spans carrying a ``dt`` attr.
        self.by_dt: dict[tuple[str, str], list[float]] = defaultdict(list)
        for span_id, span in enumerate(spans):
            if span[ROUND] < 0:
                continue
            name = span[NAME]
            duration = span[END] - span[START]
            cell = self._cells[name][span[ROUND]]
            cell[0] += duration - child_ns[span_id]
            cell[1] += 1
            for key, value in (span[ATTRS] or {}).items():
                if key == "dt":
                    self.by_dt[name, value].append(duration / 1e6)
                elif key == "error":
                    self.errors[name, value] += 1
                else:
                    self._attrs[name, key] += value

    def _per_round(self, names: tuple[str, ...], column: int) -> list[int]:
        cells = [self._cells[name] for name in names if name in self._cells]
        return [sum(cell[round_id][column] for cell in cells
                    if round_id in cell)
                for round_id in self.rounds]

    def self_ms_per_round(self, *names: str) -> float:
        """Median over rounds of the names' summed self time; every
        recorded name when none is given."""
        values = self._per_round(names or tuple(self._cells), 0)
        return statistics.median(values) / 1e6 if values else 0.0

    def calls_per_round(self, *names: str) -> float:
        values = self._per_round(names, 1)
        return statistics.median(values) if values else 0.0

    def calls(self, *names: str) -> int:
        return sum(self._per_round(names, 1))

    def self_ms_total(self, *names: str) -> float:
        return sum(self._per_round(names, 0)) / 1e6

    def attr(self, name: str, key: str) -> int:
        return self._attrs.get((name, key), 0)

    def table(self) -> list[dict]:
        """Span names by share of all recorded self time, largest first."""
        total = self.self_ms_total(*self._cells) or 1.0
        rows = [{"span": name, "calls": self.calls(name),
                 "self_ms_per_round": round(self.self_ms_per_round(name), 3),
                 "share": round(self.self_ms_total(name) / total, 4)}
                for name in self._cells]
        return sorted(rows, key=lambda row: -row["share"])
