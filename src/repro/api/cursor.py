"""DB-API-flavored cursors with per-micro-partition streaming reads.

A :class:`Cursor` executes statements against its session and serves
SELECT results page by page: every plan is evaluated as a stream of
batches over its scans' micro-partitions
(:func:`repro.engine.executor.stream_evaluate`, the executor's one
operator set). Row-preserving plans run lazily, so ``fetchmany(k)`` holds
at most the unserved remainder of a single partition beyond the page it
returns — a large scan never materializes an O(result) row list.
``ORDER BY ... LIMIT k`` keeps a bounded top-k (at most ``k`` rows).
Materializing operators run when the cursor executes: a GROUP BY or
DISTINCT folds partition by partition and holds only its groups; joins,
windows and unbounded sorts hold their inputs. Each batch is a
:class:`~repro.engine.relation.Relation`, which the cursor transposes
into row tuples once per batch pulled.

The surface follows PEP 249 where it makes sense for an embedded
analytical engine: ``execute`` / ``executemany``, ``fetchone`` /
``fetchmany`` / ``fetchall``, iteration, ``description``, ``rowcount``,
``arraysize`` — plus the connection-level transaction controls
(``commit`` / ``rollback`` / ``autocommit``), which delegate to the
cursor's session. Auto-commit remains the default; ``BEGIN`` /
``COMMIT`` / ``ROLLBACK`` may equally be issued as SQL text through
``execute``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

from repro.api.prepared import PreparedStatement
from repro.api.results import description_of
from repro.errors import UserError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session
    from repro.engine.relation import Relation

#: Default ``fetchmany`` page size.
DEFAULT_ARRAYSIZE = 64


class Cursor:
    """A streaming statement executor bound to one session."""

    def __init__(self, session: "Session"):
        self.session = session
        self.arraysize = DEFAULT_ARRAYSIZE
        self._description: Optional[list[tuple]] = None
        self._rowcount = -1
        self._batches: Optional[Iterator[Relation]] = None
        self._buffer: deque[tuple] = deque()
        self._sql: Optional[str] = None
        self._closed = False

    # -- DB-API attributes ---------------------------------------------------

    @property
    def description(self) -> Optional[list[tuple]]:
        """Column descriptions of the last SELECT, else None."""
        return self._description

    @property
    def rowcount(self) -> int:
        """Rows affected by the last DML statement; -1 when unknown (DDL,
        or a streaming SELECT whose end has not been reached)."""
        return self._rowcount

    # -- DB-API transaction controls (delegate to the session) ---------------

    @property
    def autocommit(self) -> bool:
        """The session's autocommit mode (see
        :attr:`repro.api.session.Session.autocommit`)."""
        return self.session.autocommit

    @autocommit.setter
    def autocommit(self, value: bool) -> None:
        self.session.autocommit = value

    def commit(self) -> None:
        """Commit the session's open transaction (no-op without one)."""
        self.session.commit()

    def rollback(self) -> None:
        """Roll back the session's open transaction (no-op without one)."""
        self.session.rollback()

    # -- execution -----------------------------------------------------------

    def execute(self, operation: Union[str, PreparedStatement],
                binds: object = None) -> "Cursor":
        """Execute a statement (SQL text or a prepared statement).

        SQL text is prepared through the session, so repeated ``execute``
        calls with the same text hit the shared plan cache.
        """
        self._check_open()
        prepared = self._prepared(operation)
        self._reset()
        self._sql = prepared.sql
        if prepared.is_query:
            schema, batches = self.session._stream_prepared(prepared, binds)
            self._description = description_of(schema)
            self._batches = batches
        else:
            __, self._rowcount = self.session._execute_prepared(prepared,
                                                                binds)
        return self

    def executemany(self, operation: Union[str, PreparedStatement],
                    bind_sets: Iterable[object]) -> "Cursor":
        """Execute once per bind set (INSERT ... VALUES is committed as a
        single batched transaction); no result rows are produced."""
        self._check_open()
        prepared = self._prepared(operation)
        if prepared.is_query:
            raise UserError("executemany does not support SELECT")
        self._reset()
        self._rowcount = prepared.executemany(bind_sets)
        return self

    def _prepared(self,
                  operation: Union[str, PreparedStatement],
                  ) -> PreparedStatement:
        if isinstance(operation, PreparedStatement):
            if operation._session is not self.session:
                raise UserError(
                    "prepared statement belongs to a different session")
            return operation
        return self.session.prepare(operation)

    # -- fetching ------------------------------------------------------------

    def fetchone(self) -> Optional[tuple]:
        """The next result row, or None when exhausted."""
        self._check_results()
        if not self._fill(1):
            return None
        return self._buffer.popleft()

    def fetchmany(self, size: Optional[int] = None) -> list[tuple]:
        """The next page of at most ``size`` rows (default ``arraysize``).

        Pulls micro-partitions from the stream only until the page is
        covered: beyond the returned page, at most the unserved tail of
        one partition stays buffered.
        """
        self._check_results()
        if size is None:
            size = self.arraysize
        if size < 0:
            raise UserError(f"fetch size must be non-negative, got {size}")
        self._fill(size)
        return [self._buffer.popleft()
                for __ in range(min(size, len(self._buffer)))]

    def fetchall(self) -> list[tuple]:
        """All remaining rows (materializes the rest of the stream)."""
        self._check_results()
        self._fill(None)
        rows = list(self._buffer)
        self._buffer.clear()
        return rows

    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> tuple:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    def _fill(self, want: Optional[int]) -> bool:
        """Buffer rows until ``want`` are available (None: drain); True
        when at least one row is buffered."""
        while self._batches is not None and (want is None
                                             or len(self._buffer) < want):
            # Lazy evaluation surfaces errors at fetch time; they must
            # cross the same boundary as execute-time errors (including
            # poisoning an open transaction).
            with self.session._statement_scope(self._sql or ""):
                try:
                    batch = next(self._batches)
                except StopIteration:
                    self._batches = None
                    break
            # Every batch is a Relation: one transpose per batch beats
            # one tuple-unpack per row.
            self._buffer.extend(batch.rows)
        return bool(self._buffer)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._reset()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _reset(self) -> None:
        self._description = None
        self._rowcount = -1
        self._batches = None
        self._buffer.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise UserError("cursor is closed")

    def _check_results(self) -> None:
        self._check_open()
        if self._description is None and self._batches is None \
                and not self._buffer:
            raise UserError("no result set: execute a SELECT first")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"Cursor(session=#{self.session.id}, {state})"
