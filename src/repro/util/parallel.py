"""Worker pools and the partition fan-out context.

Two small primitives shared by the parallel refresh subsystem
(:mod:`repro.scheduler.executor`):

* :class:`WorkerPool` — a sized ``ThreadPoolExecutor`` wrapper whose
  :meth:`~WorkerPool.map_ordered` fans a function over items concurrently
  but returns results **in input order**, so every parallel consumer in
  the engine combines partial results deterministically;
* the **partition fan-out context** — a thread-local slot holding the
  pool that intra-refresh partition work (the aggregate-state scans and
  columnar folds of :mod:`repro.ivm.aggstate`) may fan out to. The
  refresh engine installs
  it around one refresh via :func:`partition_parallelism`; the fan-out
  sites read it with :func:`fanout_pool` and record their task counts on
  the context's :class:`FanoutStats`.

The slot is *thread-local* on purpose: under DAG-level parallelism each
refresh runs on its own coordinator worker, and the context it installs
must not leak into sibling refreshes. Pool worker threads never see the
slot either, so partition tasks cannot recursively fan out — which is
what makes sharing one bounded partition pool across concurrent
refreshes deadlock-free (tasks never block on the pool they run in).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TypeVar, Union

from repro.faults import inject

T = TypeVar("T")
R = TypeVar("R")

#: Below this many rows a chunked scan is not worth the task overhead.
MIN_PARALLEL_ROWS = 256


class WorkerPool:
    """A bounded thread pool with deterministic ordered fan-out."""

    def __init__(self, workers: int, name: str = "repro-worker"):
        if workers < 1:
            raise ValueError("worker pool needs at least one worker")
        self.workers = workers
        #: Lazily created: a pool of one worker degenerates to inline
        #: execution and never spawns a thread.
        self._executor: Optional[ThreadPoolExecutor] = None
        self._name = name
        self._mutex = threading.Lock()
        self._closed = False

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._mutex:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix=self._name)
            return self._executor

    def map_ordered(self, fn: Callable[[T], R], items: Sequence[T],
                    return_exceptions: bool = False,
                    ) -> list[Union[R, BaseException]]:
        """Apply ``fn`` to every item concurrently; results come back in
        input order. By default a worker exception propagates to the
        caller; with ``return_exceptions=True`` each failing task yields
        its exception *as the result* instead, so one crashed task cannot
        take down its siblings (wave isolation in the DAG executor)."""
        def task(item: T) -> Union[R, BaseException]:
            if not return_exceptions:
                inject("worker.task", pool=self._name)
                return fn(item)
            try:
                # The injection point sits inside the guard: a fault here
                # models the worker crashing at task startup, and wave
                # isolation must contain that too.
                inject("worker.task", pool=self._name)
                return fn(item)
            except Exception as exc:
                return exc

        if self.workers == 1 or len(items) <= 1:
            return [task(item) for item in items]
        executor = self._ensure_executor()
        futures = [executor.submit(task, item) for item in items]
        return [future.result() for future in futures]

    def close(self) -> None:
        with self._mutex:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkerPool(workers={self.workers})"


def chunk_spans(count: int, chunks: int,
                minimum: int = MIN_PARALLEL_ROWS) -> list[tuple[int, int]]:
    """Split ``range(count)`` into at most ``chunks`` contiguous
    ``(start, stop)`` spans of at least ``minimum`` rows each (except
    possibly the last). Deterministic in ``count``/``chunks`` alone."""
    if count <= 0:
        return []
    chunks = max(1, min(chunks, count // minimum))
    size = (count + chunks - 1) // chunks
    return [(start, min(start + size, count))
            for start in range(0, count, size)]


@dataclass
class FanoutStats:
    """What one refresh's partition fan-out actually did (observability:
    surfaces in the refresh record and EXPLAIN)."""

    pool: Optional[WorkerPool] = None
    #: Partition/chunk tasks dispatched to the pool.
    tasks: int = 0
    #: Fan-out sites that ran (``"agg-init"``, ``"fold-inputs"``, ...).
    sites: list[str] = field(default_factory=list)

    @property
    def workers(self) -> int:
        return self.pool.workers if self.pool is not None else 1

    def note(self, site: str, tasks: int) -> None:
        self.tasks += tasks
        self.sites.append(site)


_local = threading.local()


def fanout_context() -> Optional[FanoutStats]:
    """The calling thread's active partition fan-out context, if any."""
    return getattr(_local, "context", None)


def fanout_pool() -> Optional[WorkerPool]:
    """The pool partition work on this thread may fan out to, or None."""
    context = fanout_context()
    if context is None or context.pool is None:
        return None
    return context.pool


@contextmanager
def partition_parallelism(pool: Optional[WorkerPool]):
    """Install ``pool`` as this thread's partition fan-out target for the
    duration of one refresh; yields the :class:`FanoutStats` the fan-out
    sites will record into. ``pool=None`` still yields a (inert) context,
    so callers need no None-handling."""
    context = FanoutStats(pool=pool)
    previous = getattr(_local, "context", None)
    _local.context = context
    try:
        yield context
    finally:
        _local.context = previous


def fanout_map(site: str, fn: Callable[[T], R],
               items: Sequence[T]) -> list[R]:
    """Ordered map over ``items`` through the active partition pool —
    inline when no pool is installed or the fan-out would be a single
    task. Results are always in input order, so callers that combine
    them sequentially are byte-identical to the serial path."""
    context = fanout_context()
    if (context is None or context.pool is None
            or context.pool.workers <= 1 or len(items) <= 1):
        return [fn(item) for item in items]
    context.note(site, len(items))
    return context.pool.map_ordered(fn, items)
