"""Table locks.

Section 5.3 of the paper: "Conflicts are managed using locks. Each Dynamic
Table is locked when a refresh operation begins, and unlocked after it
commits." Originally the simulation was single-threaded and these were
purely *logical* locks — held-by-another simply raised
:class:`~repro.errors.LockConflict` (the scheduler's skip logic in section
3.3.3 depends on that surface: "the current implementation of Dynamic
Tables does not permit concurrent refreshes of the same DT").

The multi-session server front end (:mod:`repro.server`) executes sessions
on real threads, so the lock table is now a genuine concurrency primitive:
every operation runs under one condition variable, and :meth:`acquire` can
*block* for up to ``timeout`` seconds before surfacing
:class:`LockConflict`. The default timeout of zero preserves the original
fail-fast behaviour everywhere the scheduler relies on it; the server
raises the transaction manager's ``lock_timeout`` so commit critical
sections queue behind each other instead of spuriously failing.
"""

from __future__ import annotations

import threading
import time

from repro.errors import LockConflict


class LockManager:
    """Exclusive per-table locks keyed by holder id (thread-safe)."""

    def __init__(self):
        self._holders: dict[str, int] = {}
        self._condition = threading.Condition()

    def acquire(self, table: str, holder: int, timeout: float = 0.0) -> None:
        """Acquire the lock on ``table`` for ``holder``.

        Re-entrant for the same holder. When the lock is held by another
        holder: with ``timeout <= 0`` raise :class:`LockConflict`
        immediately (the scheduler's skip surface); otherwise block until
        the lock frees, raising :class:`LockConflict` only after
        ``timeout`` seconds.
        """
        # Cross-thread blocking needs a real monotonic deadline; the
        # simulated clock cannot advance while this thread waits.
        deadline = (time.monotonic() + timeout  # eng: allow-ENG001 (blocking wait)
                    ) if timeout > 0 else None
        with self._condition:
            while True:
                current = self._holders.get(table)
                if current is None or current == holder:
                    self._holders[table] = holder
                    return
                if deadline is None:
                    raise LockConflict(
                        f"table {table!r} is locked by transaction {current}")
                remaining = deadline - time.monotonic()  # eng: allow-ENG001 (blocking wait)
                if remaining <= 0:
                    raise LockConflict(
                        f"timed out after {timeout:.1f}s waiting for lock on "
                        f"{table!r} (held by transaction {current})")
                self._condition.wait(remaining)

    def release(self, table: str, holder: int) -> None:
        with self._condition:
            if self._holders.get(table) == holder:
                del self._holders[table]
                self._condition.notify_all()

    def release_all(self, holder: int) -> None:
        with self._condition:
            released = False
            for table in [name for name, who in self._holders.items()
                          if who == holder]:
                del self._holders[table]
                released = True
            if released:
                self._condition.notify_all()

    def holder_of(self, table: str) -> int | None:
        with self._condition:
            return self._holders.get(table)

    def is_locked(self, table: str) -> bool:
        with self._condition:
            return table in self._holders

    def held_tables(self) -> list[str]:
        """The currently locked table names (diagnostics / tests)."""
        with self._condition:
            return sorted(self._holders)
