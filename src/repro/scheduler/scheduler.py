"""The refresh scheduler: the discrete-event control loop.

Section 5.1 of the paper: "The catalog generates a timestamped,
linearizable log of DDL operations to all DTs and related entities. This
DDL log is consumed by a job in the scheduler that renders the dependency
graph of DTs and issues refresh commands as required to meet the target
lag of each."

The loop reproduces the heuristic of section 5.2:

* each DT gets a **canonical refresh period** (48·2^n s) derived from its
  effective target lag, clamped to be ≥ its upstream DTs' periods;
* all periods share one account-constant **phase**, so the refresh ticks
  of a downstream DT are a subset of its upstream's ticks and data
  timestamps align across a connected component;
* at each tick, due DTs refresh in topological order; a refresh's start
  waits for its upstream refreshes at the same data timestamp
  (w_i ≥ max(w_j + d_j), section 5.2) and for a free warehouse slot;
* **skips** (section 3.3.3): if a DT's previous refresh is still running
  at its next tick, the tick is skipped — "relying on the subsequent
  refresh to bring the DT's data timestamp up to date"; the following
  refresh widens its change interval automatically because it
  differentiates from the frontier. Skips also cascade: a DT whose
  upstream has no data at the tick's timestamp skips rather than violate
  snapshot isolation.

Workload events (DML against base tables, DDL, manual refreshes) are
injected with :meth:`Scheduler.at` and interleave with ticks in time
order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.dynamic_table import (DynamicTable, RefreshAction,
                                      RefreshRecord)
from repro.core.graph import DependencyGraph
from repro.errors import VersionNotFound
from repro.core.refresh import RefreshEngine
from repro.scheduler.clock import SimClock
from repro.scheduler.cost import CostModel
from repro.scheduler.executor import (ParallelRefreshCoordinator,
                                      dependency_waves)
from repro.scheduler.periods import (BASE_PERIOD, choose_period,
                                     clamp_to_upstream, is_tick)
from repro.scheduler.warehouse import WarehousePool
from repro.storage.catalog import Catalog
from repro.util.timeutil import Duration, Timestamp


@dataclass
class SchedulerReport:
    """Counters accumulated over a run (used by the benchmarks)."""

    ticks: int = 0
    refreshes_attempted: int = 0
    refreshes_succeeded: int = 0
    refreshes_failed: int = 0
    refreshes_skipped: int = 0
    no_data_refreshes: int = 0
    actions: dict[str, int] = field(default_factory=dict)

    def record(self, record: RefreshRecord) -> None:
        self.refreshes_attempted += 1
        if record.skipped:
            self.refreshes_skipped += 1
            return
        if record.error is not None:
            self.refreshes_failed += 1
            return
        self.refreshes_succeeded += 1
        if record.action is not None:
            name = record.action.value
            self.actions[name] = self.actions.get(name, 0) + 1
            if name == "no_data":
                self.no_data_refreshes += 1


class Scheduler:
    """Drives refreshes to meet target lags over simulated time."""

    def __init__(self, catalog: Catalog, engine: RefreshEngine,
                 warehouses: WarehousePool, clock: SimClock,
                 cost_model: CostModel | None = None, phase: Timestamp = 0,
                 parallelism: Optional[int] = None):
        self.catalog = catalog
        self.engine = engine
        self.warehouses = warehouses
        self.clock = clock
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.phase = phase
        self.report = SchedulerReport()
        # Liveness instrumentation (section 6.2): every executed refresh
        # registers with the monitor and emits simulated heartbeats.
        from repro.scheduler.liveness import LivenessMonitor

        self.liveness = LivenessMonitor()
        #: dt name -> simulated end time of its in-flight/most recent refresh.
        self._busy_until: dict[str, Timestamp] = {}
        self._events: list[tuple[Timestamp, int, Callable[[], None]]] = []
        self._event_seq = itertools.count()
        #: DAG-parallel mode (None = the exact serial legacy behavior).
        self.parallelism: Optional[int] = None
        self._coordinator: Optional[ParallelRefreshCoordinator] = None
        #: Modeled dispatch capacity: next-free times of ``parallelism``
        #: scheduler slots, persisting across ticks like warehouse slots.
        self._dispatch_slots: list[Timestamp] = []
        if parallelism is not None:
            self.set_parallelism(parallelism)

    def set_parallelism(self, workers: Optional[int]) -> None:
        """Switch between the serial tick loop (``None``, the exact
        historical behavior — no dispatch slots, no pool) and DAG-parallel
        mode: each tick's due DTs partition into dependency waves whose
        independent refreshes execute concurrently, and modeled durations
        queue on ``workers`` dispatch slots so modeled makespans overlap
        for independent DTs (``workers=1`` models a fully serialized
        executor — the paper's one-refresh-at-a-time baseline)."""
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None
        self.parallelism = workers
        self._dispatch_slots = [] if workers is None else [0] * workers
        if workers is not None:
            self._coordinator = ParallelRefreshCoordinator(self.engine,
                                                           workers)

    # -- workload injection ---------------------------------------------------------

    def at(self, time: Timestamp, callback: Callable[[], None]) -> None:
        """Schedule a workload callback (DML/DDL) at a simulated time."""
        heapq.heappush(self._events, (time, next(self._event_seq), callback))

    # -- the loop ----------------------------------------------------------------------

    def run_until(self, end_time: Timestamp) -> SchedulerReport:
        """Advance simulated time to ``end_time``, firing workload events
        and refresh ticks in order. Events at a given time run before the
        tick at that time."""
        while True:
            next_tick_time = self._next_tick_after(self.clock.now())
            next_event_time = self._events[0][0] if self._events else None

            candidates = [time for time in (next_tick_time, next_event_time)
                          if time is not None and time <= end_time]
            if not candidates:
                break
            time = min(candidates)
            self.clock.advance_to(time)
            # Drain events at this instant first.
            while self._events and self._events[0][0] <= time:
                __, __, callback = heapq.heappop(self._events)
                callback()
            if is_tick(time, BASE_PERIOD, self.phase):
                self._tick(time)
        self.clock.advance_to(end_time)
        return self.report

    def _next_tick_after(self, time: Timestamp) -> Timestamp:
        elapsed = (time - self.phase) % BASE_PERIOD
        if elapsed == 0 and time > self.phase:
            return time + BASE_PERIOD
        if elapsed == 0:
            return time if time > 0 else BASE_PERIOD + self.phase
        return time + (BASE_PERIOD - elapsed)

    # -- periods ----------------------------------------------------------------------

    def assign_periods(self, graph: DependencyGraph,
                       ) -> dict[str, Optional[Duration]]:
        """Choose a canonical refresh period per DT (section 5.2).

        DOWNSTREAM DTs with no concrete downstream lag get None — they
        refresh only when a downstream refresh demands them or manually.
        """
        periods: dict[str, Optional[Duration]] = {}
        for dt in graph.topological_order():
            effective = graph.effective_lag(dt.name)
            if effective is None:
                periods[dt.name] = None
                continue
            period = choose_period(effective)
            upstream_periods = [
                periods[upstream.name]
                for upstream in graph.upstream_dts(dt.name)
                if periods.get(upstream.name) is not None]
            periods[dt.name] = clamp_to_upstream(period, upstream_periods)
        return periods

    # -- one tick ---------------------------------------------------------------------

    def _tick(self, time: Timestamp) -> None:
        self.report.ticks += 1
        graph = DependencyGraph(self.catalog)
        periods = self.assign_periods(graph)

        due: list[DynamicTable] = []
        for dt in graph.topological_order():
            period = periods.get(dt.name)
            if period is None or not is_tick(time, period, self.phase):
                continue
            if dt.suspended:
                continue
            due.append(dt)

        #: end-wall of refreshes committed *at this tick's data timestamp*.
        completed_at_tick: dict[str, Timestamp] = {}
        if self._coordinator is None:
            for dt in due:
                self._refresh_one(dt, time, graph, completed_at_tick)
        else:
            self._tick_parallel(due, time, graph, completed_at_tick)

    def _refresh_one(self, dt: DynamicTable, time: Timestamp,
                     graph: DependencyGraph,
                     completed_at_tick: dict[str, Timestamp]) -> None:
        upstream_ends = self._skip_or_upstream_ends(dt, time, graph,
                                                    completed_at_tick)
        if upstream_ends is None:
            return
        record = self.engine.refresh(dt, time)
        self._account(dt, time, record, upstream_ends, completed_at_tick)

    def _tick_parallel(self, due: list[DynamicTable], time: Timestamp,
                       graph: DependencyGraph,
                       completed_at_tick: dict[str, Timestamp]) -> None:
        """One tick in DAG-parallel mode: the due DTs partition into
        dependency waves, each wave's non-skipped refreshes execute
        concurrently on the coordinator pool, and all bookkeeping —
        modeled timing, dispatch slots, liveness, report — happens here
        on the driving thread in deterministic (wave, topological)
        order. Skip checks run before each wave is submitted: every
        upstream of a wave member sits in an earlier wave (if due) or
        holds still this tick (if not), so ``completed_at_tick`` is
        already complete for it."""
        waves = dependency_waves(due, graph)
        for wave_index, wave in enumerate(waves):
            runnable: list[DynamicTable] = []
            ends: list[list[Timestamp]] = []
            for dt in wave:
                upstream_ends = self._skip_or_upstream_ends(
                    dt, time, graph, completed_at_tick)
                if upstream_ends is None:
                    continue
                runnable.append(dt)
                ends.append(upstream_ends)
            if not runnable:
                continue
            records = self._coordinator.refresh_wave(
                [(dt, time) for dt in runnable])
            for dt, upstream_ends, record in zip(runnable, ends, records):
                record.parallel = {"wave": wave_index + 1,
                                   "waves": len(waves),
                                   "workers": self.parallelism}
                self._account(dt, time, record, upstream_ends,
                              completed_at_tick)

    def _skip_or_upstream_ends(self, dt: DynamicTable, time: Timestamp,
                               graph: DependencyGraph,
                               completed_at_tick: dict[str, Timestamp],
                               ) -> Optional[list[Timestamp]]:
        """The skip gate of one due DT: records and returns None when the
        tick must be skipped, else the end-walls of its upstream
        refreshes at this data timestamp."""
        # Skip: previous refresh still running (section 3.3.3).
        if self._busy_until.get(dt.name, 0) > time:
            self._record_skip(dt, time)
            return None

        # Cascade skip: an upstream DT has no data at this timestamp
        # (it was skipped, failed, suspended, or is on a larger period).
        upstream_ends: list[Timestamp] = []
        for upstream in graph.upstream_dts(dt.name):
            if upstream.name in completed_at_tick:
                upstream_ends.append(completed_at_tick[upstream.name])
                continue
            try:
                upstream.table.version_for_refresh(time)
            except VersionNotFound:
                self._record_skip(
                    dt, time,
                    upstream_failed=self._upstream_failed(upstream, time))
                return None
            except Exception as exc:  # eng: allow-ENG006 (skip gate: recorded, never propagated)
                # Anything else is a real error, not a missing version.
                # It must never be swallowed as a silent skip: record it
                # on the DT as a failed attempt (visible in history,
                # counted toward auto-suspension) and skip this tick.
                record = RefreshRecord(
                    data_timestamp=time,
                    error=(f"upstream probe of {upstream.name!r} failed: "
                           f"{type(exc).__name__}: {exc}"))
                dt.record_refresh(record)
                self.report.record(record)
                return None
        return upstream_ends

    @staticmethod
    def _upstream_failed(upstream: DynamicTable, time: Timestamp) -> bool:
        """Whether an upstream's missing version at ``time`` is due to
        *failure* (suspended, or its attempt at this timestamp errored)
        rather than benign scheduling (larger period, still running)."""
        if upstream.suspended:
            return True
        for record in reversed(upstream.refresh_history):
            if record.data_timestamp < time:
                break
            if record.data_timestamp == time and record.error is not None:
                return True
        return False

    def _record_skip(self, dt: DynamicTable, time: Timestamp,
                     upstream_failed: bool = False) -> None:
        record = RefreshRecord(data_timestamp=time, skipped=True)
        if upstream_failed:
            # Section 3.3.3 graceful degradation: the DT keeps serving
            # its last version while its upstream is failing, and the
            # skip is distinguishable (staleness reports, EXPLAIN).
            record.action = RefreshAction.SKIPPED_UPSTREAM_FAILED
        dt.record_refresh(record)
        self.report.record(record)

    def _account(self, dt: DynamicTable, time: Timestamp,
                 record: RefreshRecord, upstream_ends: list[Timestamp],
                 completed_at_tick: dict[str, Timestamp]) -> None:
        # Simulated timing: wait for upstream completion at this data
        # timestamp, then for a warehouse slot; run for the modeled cost.
        # In DAG-parallel mode the refresh additionally queues on one of
        # ``parallelism`` dispatch slots — the modeled analogue of the
        # coordinator's worker count.
        arrival = max([time] + upstream_ends)
        duration = self.cost_model.duration_of(
            record, self.warehouses.get(dt.warehouse).size
            if self.warehouses.exists(dt.warehouse) else 1)
        if record.error is not None:
            # Failed refreshes burn only the fixed cost.
            duration = self.cost_model.fixed_cost
        # Retried attempts waited out their exponential backoff on the
        # simulated clock: fold it into the modeled duration so liveness
        # and warehouse occupancy see the retries (never a wall sleep).
        duration += record.backoff_total
        slot_index: Optional[int] = None
        if self._dispatch_slots:
            slot_index = min(range(len(self._dispatch_slots)),
                             key=self._dispatch_slots.__getitem__)
            arrival = max(arrival, self._dispatch_slots[slot_index])
        if self.cost_model.uses_warehouse(record) and self.warehouses.exists(
                dt.warehouse):
            start, end = self.warehouses.get(dt.warehouse).submit(
                arrival, duration)
        else:
            start, end = arrival, arrival + duration
        if slot_index is not None:
            self._dispatch_slots[slot_index] = end
        record.start_wall = start
        record.end_wall = end
        self._busy_until[dt.name] = end
        self.liveness.begin(dt.name, time, start)
        self.liveness.simulate_heartbeats(dt.name, start, end)
        self.liveness.end(dt.name, end, record.succeeded)
        if record.succeeded:
            completed_at_tick[dt.name] = end
        self.report.record(record)
