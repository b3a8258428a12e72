"""The parallel refresh coordinator: DAG-concurrent refreshes in waves.

The scheduler's topological order over-serializes a tick: it constrains
*dependent* DTs only, yet the serial loop runs every due DT one after
another. This module supplies the concurrency the dependency graph
actually permits (section 5.2's w_i ≥ max(w_j + d_j) constrains nothing
between independent DTs):

* :func:`dependency_waves` partitions a tick's due DTs into **waves** —
  wave 0 holds due DTs with no due upstream, wave k holds DTs whose
  deepest due upstream sits in wave k-1. DTs within one wave are
  pairwise independent *for this tick*: no refresh in a wave reads a
  table another refresh in the same wave writes;
* :class:`ParallelRefreshCoordinator` executes one wave's refreshes
  concurrently on a real thread pool. Commits serialize behind the
  transaction manager's commit mutex and each refresh holds its DT's
  table lock for its whole duration, so concurrent refreshes are safe —
  and because every refresh pins its exact source versions, the
  resulting table states are byte-identical to the serial loop's.

The coordinator returns each wave's refresh records **in submission
order**; all scheduling bookkeeping (modeled timing, skip accounting,
liveness) stays on the driving thread.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.dynamic_table import DynamicTable, RefreshRecord
from repro.core.graph import DependencyGraph
from repro.core.refresh import RefreshEngine
from repro.util.parallel import WorkerPool
from repro.util.timeutil import Timestamp


def dependency_waves(due: Sequence[DynamicTable], graph: DependencyGraph,
                     ) -> list[list[DynamicTable]]:
    """Partition ``due`` (which must be in topological order) into
    dependency waves: ``wave(dt) = 1 + max(wave of its due upstreams)``,
    0 when none. Upstream DTs that are *not* due this tick impose no
    ordering — they do not refresh, so their versions are fixed for the
    whole tick."""
    wave_of: dict[str, int] = {}
    waves: list[list[DynamicTable]] = []
    for dt in due:
        wave = 0
        for upstream in graph.upstream_dts(dt.name):
            upstream_wave = wave_of.get(upstream.name)
            if upstream_wave is not None:
                wave = max(wave, upstream_wave + 1)
        wave_of[dt.name] = wave
        if wave == len(waves):
            waves.append([])
        waves[wave].append(dt)
    return waves


class ParallelRefreshCoordinator:
    """Runs one wave of independent refreshes concurrently.

    Owns the DAG-level :class:`WorkerPool`; each worker runs one whole
    refresh.
    """

    def __init__(self, engine: RefreshEngine, workers: int):
        self.engine = engine
        self.workers = workers
        self.pool = WorkerPool(workers, name="repro-refresh")

    def refresh_wave(self, jobs: Sequence[tuple[DynamicTable, Timestamp]],
                     ) -> list[RefreshRecord]:
        """Refresh every ``(dt, refresh_ts)`` job concurrently; records
        return in job order. ``engine.refresh`` never raises — failures
        come back as error records — but the worker *task itself* can
        still die (a crashed pool thread, an injected ``worker.task``
        fault). ``return_exceptions`` confines such a crash to its own
        job: the coordinator synthesizes an error record for it, counted
        against the DT like any refresh failure, and the rest of the
        wave completes normally."""
        results = self.pool.map_ordered(
            lambda job: self.engine.refresh(job[0], job[1]), jobs,
            return_exceptions=True)
        records: list[RefreshRecord] = []
        for (dt, refresh_ts), result in zip(jobs, results):
            if isinstance(result, BaseException):
                record = RefreshRecord(
                    data_timestamp=refresh_ts,
                    error=f"{type(result).__name__}: {result}")
                dt.record_refresh(record)
                records.append(record)
            else:
                records.append(result)
        return records

    def close(self) -> None:
        self.pool.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelRefreshCoordinator(workers={self.workers})"
