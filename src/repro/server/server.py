"""A thread-pool server serving many sessions over one database.

The paper's production system is a multi-tenant service: many client
connections, each with snapshot-consistent transactions, against shared
storage. This module reproduces that shape in-process:

* the :class:`Server` owns one :class:`~repro.api.database.Database` and a
  ``ThreadPoolExecutor``; every statement a client submits executes on a
  pool worker;
* each :class:`Connection` wraps one :class:`~repro.api.session.Session`.
  Sessions are **thread-confined by serialization**: a per-connection
  mutex guarantees at most one statement of a connection runs at a time,
  so per-session state (open transaction, settings, poisoned flag) never
  sees two threads — while statements of *different* connections run
  genuinely concurrently;
* the catalog and commit **critical sections serialize behind the
  existing lock manager**: the server raises
  :attr:`~repro.txn.manager.TransactionManager.lock_timeout`, so a commit
  acquiring its written tables' locks *queues* behind a concurrent
  committer instead of failing fast, and catalog DDL runs under the
  catalog mutex;
* conflicts still happen — snapshot isolation's first-committer-wins
  check fires whenever a transaction commits a table someone else
  committed after its snapshot — and surface as
  :class:`~repro.errors.LockConflict`. :meth:`Server.run_transaction`
  packages the canonical response: rollback, small exponential backoff,
  retry from a fresh snapshot.

The stress test in ``tests/test_server.py`` drives N writer sessions into
one table and checks the table invariant (no lost updates, conserved
totals); ``benchmarks/bench_t10_concurrent_sessions.py`` measures the
same workload across writer counts.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, Optional, TypeVar

from repro.api.database import Database
from repro.api.results import QueryResult
from repro.api.session import Session
from repro.errors import LockConflict, UserError

T = TypeVar("T")

#: Default worker-thread count.
DEFAULT_WORKERS = 8

#: How long a commit may wait on another commit's table locks before
#: giving up with LockConflict.
DEFAULT_LOCK_TIMEOUT = 5.0

#: Default attempt budget of :meth:`Server.run_transaction`.
DEFAULT_MAX_ATTEMPTS = 50

#: Initial / maximum backoff between conflict retries, in seconds.
_BACKOFF_START = 0.0005
_BACKOFF_CAP = 0.02


class ServerStats:
    """Thread-safe counters for the server's traffic.

    ``statements`` counts jobs submitted through ``Server.execute`` /
    ``Connection.execute``-style entry points; statements a
    ``run_transaction`` work function issues on its session are *not*
    individually counted — that workload shows up in ``transactions`` /
    ``commits`` / ``conflicts`` / ``retries`` instead.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.statements = 0
        self.transactions = 0
        self.commits = 0
        self.conflicts = 0
        self.retries = 0

    def count_statement(self) -> None:
        with self._mutex:
            self.statements += 1

    def count_commit(self, attempts_used: int) -> None:
        with self._mutex:
            self.transactions += 1
            self.commits += 1
            self.retries += attempts_used - 1

    def count_conflict(self) -> None:
        with self._mutex:
            self.conflicts += 1

    def snapshot(self) -> dict:
        with self._mutex:
            return {"statements": self.statements,
                    "transactions": self.transactions,
                    "commits": self.commits,
                    "conflicts": self.conflicts,
                    "retries": self.retries}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServerStats({self.snapshot()})"


class Connection:
    """One client connection: a session whose statements execute on the
    server's pool, strictly one at a time (thread confinement).

    ``execute`` / ``executemany`` return :class:`~concurrent.futures.
    Future` objects so a client can pipeline statements; the ``*_sync``
    forms and ``query`` block for the result. Transaction control
    (:meth:`begin` / :meth:`commit` / :meth:`rollback`, or SQL ``BEGIN`` /
    ``COMMIT`` / ``ROLLBACK`` through ``execute``) spans statements of
    this connection exactly as it does on a plain session.
    """

    def __init__(self, server: "Server", session: Session) -> None:
        self._server = server
        self.session = session
        #: Serializes this connection's statements across pool workers.
        self._serial = threading.Lock()
        self._closed = False

    @property
    def id(self) -> int:
        return self.session.id

    def _submit(self, work: Callable[[], T]) -> "Future[T]":
        if self._closed:
            raise UserError("connection is closed")

        def job() -> T:
            with self._serial:
                # Re-check under the serialization lock: statements that
                # were still queued when close() ran must not execute
                # after its rollback (they would reopen staged state).
                if self._closed:
                    raise UserError("connection is closed")
                self._server.stats.count_statement()
                return work()

        return self._server._submit(job)

    # -- statements ----------------------------------------------------------

    def execute(self, sql: str,
                binds: object = None) -> "Future[Optional[QueryResult]]":
        return self._submit(lambda: self.session.execute(sql, binds))

    def executemany(self, sql: str,
                    bind_sets: Iterable[object]) -> "Future[int]":
        def work() -> int:
            return self.session.prepare(sql).executemany(bind_sets)

        return self._submit(work)

    def execute_sync(self, sql: str,
                     binds: object = None) -> Optional[QueryResult]:
        return self.execute(sql, binds).result()

    def query(self, sql: str, binds: object = None) -> QueryResult:
        return self._submit(lambda: self.session.query(sql, binds)).result()

    # -- transactions --------------------------------------------------------

    def begin(self) -> None:
        self._submit(self.session.begin).result()

    def commit(self) -> None:
        self._submit(self.session.commit).result()

    def rollback(self) -> None:
        self._submit(self.session.rollback).result()

    def run_transaction(self, work: Callable[[Session], T],
                        max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> T:
        """Run ``work(session)`` inside BEGIN/COMMIT on this connection's
        session, retrying on conflicts (blocking; see
        :meth:`Server.run_transaction` for the pool-scheduled form)."""
        return self._submit(
            lambda: self._server._transaction_attempts(
                self.session, work, max_attempts)).result()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Roll back any open transaction and refuse further statements.

        Safe in any teardown order: rolls back directly (waiting out any
        in-flight statement via the serialization lock) rather than going
        through the pool, which may already be shut down.
        """
        if self._closed:
            return
        self._closed = True
        with self._serial:
            self.session.rollback()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"Connection(session=#{self.session.id}, {state})"


class Server:
    """A thread-pool front end over one database."""

    def __init__(self, database: Optional[Database] = None,
                 workers: int = DEFAULT_WORKERS,
                 lock_timeout: float = DEFAULT_LOCK_TIMEOUT) -> None:
        self.database = database if database is not None else Database()
        # Commits queue behind each other's table locks instead of
        # failing fast — the lock manager is the commit critical
        # section's serializer (see repro.txn.manager). Leased, so the
        # fail-fast default returns when the last server closes.
        self.database.txns.lease_lock_timeout(lock_timeout)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-server")
        self._workers = workers
        self._closed = False
        self.stats = ServerStats()

    # -- connections ---------------------------------------------------------

    def connect(self) -> Connection:
        """Open a new connection (its own session, independent state)."""
        self._check_open()
        return Connection(self, self.database.session())

    def _submit(self, job: Callable[[], T]) -> "Future[T]":
        self._check_open()
        return self._pool.submit(job)

    # -- one-shot statements -------------------------------------------------

    def execute(self, sql: str,
                binds: object = None) -> "Future[Optional[QueryResult]]":
        """Auto-commit one statement on a fresh session (fire-and-collect)."""
        session = self.database.session()

        def job() -> Optional[QueryResult]:
            self.stats.count_statement()
            return session.execute(sql, binds)

        return self._submit(job)

    def query(self, sql: str, binds: object = None) -> QueryResult:
        result = self.execute(sql, binds).result()
        if result is None:
            raise UserError("statement did not return rows")
        return result

    # -- transactions --------------------------------------------------------

    def submit_transaction(self, work: Callable[[Session], T],
                           max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                           ) -> "Future[T]":
        """Schedule ``work(session)`` as one transaction on the pool.

        The work function runs inside BEGIN/COMMIT on a fresh session. A
        :class:`LockConflict` — first-committer-wins validation, or a
        commit-lock timeout — rolls back and retries from a new snapshot
        with exponential backoff, up to ``max_attempts`` times. Any other
        error rolls back and propagates through the future.
        """
        session = self.database.session()

        def job() -> T:
            return self._transaction_attempts(session, work, max_attempts)

        return self._submit(job)

    def run_transaction(self, work: Callable[[Session], T],
                        max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> T:
        """:meth:`submit_transaction`, awaited."""
        return self.submit_transaction(work, max_attempts).result()

    def _transaction_attempts(self, session: Session,
                              work: Callable[[Session], T],
                              max_attempts: int) -> T:
        backoff = _BACKOFF_START
        last_conflict: Optional[LockConflict] = None
        for attempt in range(1, max_attempts + 1):
            session.begin()
            try:
                result = work(session)
                session.commit()
            except LockConflict as exc:
                session.rollback()
                self.stats.count_conflict()
                last_conflict = exc
                # Real backoff between retries of a real thread; the
                # simulated clock cannot stall another session's commit.
                time.sleep(backoff)  # eng: allow-ENG001 (real-thread backoff)
                backoff = min(backoff * 2, _BACKOFF_CAP)
                continue
            except BaseException:
                session.rollback()
                raise
            self.stats.count_commit(attempt)
            # WAL-size-threshold checkpointing piggybacks on commit
            # completion — outside the commit mutex, so the checkpoint's
            # own locking cannot deadlock with the transaction above.
            self.database.maybe_checkpoint()
            return result
        raise LockConflict(
            f"transaction gave up after {max_attempts} conflicting "
            f"attempts (last: {last_conflict})")

    # -- lifecycle -----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise UserError("server is closed")

    def close(self, wait: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=wait)
        self.database.txns.release_lock_timeout()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"workers={self._workers}"
        return f"Server({state}, {self.stats.snapshot()})"
