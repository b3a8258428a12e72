"""The worker pool behind DAG-parallel refresh.

:class:`WorkerPool` is a sized ``ThreadPoolExecutor`` wrapper whose
:meth:`~WorkerPool.map_ordered` fans a function over items concurrently
but returns results **in input order**, so its consumer — the dependency
waves of :mod:`repro.scheduler.executor` — combines results
deterministically. One refresh runs on one thread; the pool only runs
independent refreshes side by side.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence, TypeVar, Union

from repro.faults import inject

T = TypeVar("T")
R = TypeVar("R")


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
