"""The durability manager: one object wiring WAL, checkpoints, and
recovery into a :class:`~repro.api.database.Database`.

Lifecycle: ``Database(path=...)`` constructs a manager and calls
:meth:`DurabilityManager.open`, which (1) runs crash recovery against
the directory — newest valid checkpoint, then WAL replay past it — and
(2) opens the WAL for append, continuing the pre-crash record sequence.
Only *after* ``open`` returns does the database attach the manager to
the catalog and transaction manager, so replayed operations are never
re-logged.

Logging discipline (``python -m tools.analyzer`` checks the first point,
rule ENG007):

* commit records are appended by :meth:`log_commit` from inside the
  transaction manager's commit mutex — WAL order equals commit order;
* DDL records are appended from inside the catalog mutex (catalog
  hooks) or the commit mutex (database-level operations: clones,
  recluster), so WAL order equals DDL-log order.

Checkpoints take both mutexes (commit first, then catalog — the same
order the cloning path uses), write the snapshot to a temp file,
atomically install it, and truncate the WAL. A crash between install
and truncate is harmless: record sequence numbers survive truncation,
and replay skips records the checkpoint already covers.

Checkpointing must never be triggered from inside a catalog or commit
hook (the mutexes are not reentrant); the three triggers — explicit
``Database.checkpoint()``, the WAL-size threshold via
``maybe_checkpoint`` (the server calls it after each commit, outside
the mutex), and the background simulated-time tick — all run outside
the critical sections.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Optional

from repro.durability import checkpoint as ckpt
from repro.durability import codec
from repro.durability.recovery import (RecoveryReport, WAL_FILENAME,
                                       recover)
from repro.durability.wal import WriteAheadLog
from repro.errors import DurabilityError, InjectedFault, UserError
from repro.faults import inject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.database import Database
    from repro.core.dynamic_table import DynamicTable
    from repro.core.frontier import Frontier
    from repro.storage.table import StagedWrite
    from repro.txn.hlc import HlcTimestamp

#: Checkpoint files kept after pruning (the newest plus one fallback).
KEEP_CHECKPOINTS = 2

_MISSING = object()


class DurabilityManager:
    """WAL + checkpoint + recovery coordination for one database."""

    def __init__(self, db: "Database", directory: str | os.PathLike,
                 fsync: bool = True,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_wal_bytes: Optional[int] = None,
                 keep_checkpoints: int = KEEP_CHECKPOINTS,
                 wal_failure_policy: str = "readonly"):
        if wal_failure_policy not in ("readonly", "continue"):
            raise UserError(
                f"unknown wal_failure_policy: {wal_failure_policy!r} "
                f"(expected 'readonly' or 'continue')")
        self.db = db
        self.directory = os.fspath(directory)
        self.fsync = fsync
        #: What a WAL write failure escalates to: ``"readonly"`` (the
        #: default) fails the commit and refuses every later write until
        #: :meth:`exit_degraded` — durability loss is never silent;
        #: ``"continue"`` logs the failure and keeps accepting writes,
        #: an explicit opt into running without durability.
        self.wal_failure_policy = wal_failure_policy
        #: Why the database is in degraded read-only mode (None = not).
        self.degraded: Optional[str] = None
        #: WAL write failures observed (both policies count them).
        self.wal_failures = 0
        #: Simulated-time interval of the background checkpointer
        #: (None = no background checkpoints).
        self.checkpoint_every = checkpoint_every
        #: WAL size (bytes) past which ``maybe_checkpoint`` checkpoints.
        self.checkpoint_wal_bytes = checkpoint_wal_bytes
        self.keep_checkpoints = keep_checkpoints
        self.wal: Optional[WriteAheadLog] = None
        self.recovery: Optional[RecoveryReport] = None
        self.last_checkpoint_seq = 0
        self.last_checkpoint_hlc: Optional["HlcTimestamp"] = None
        self.records_since_checkpoint = 0
        self.closed = False
        #: dt name -> aggregate-store interval token (``advanced_to``)
        #: whose accumulators the last checkpoint (or recovery) captured
        #: exactly. A live store that diverges from its token would be
        #: rebuilt if the engine restarted now — the RPR031 condition.
        self._checkpoint_agg: dict[str, object] = {}
        # Serializes explicit / threshold / background checkpoints.
        self._checkpoint_mutex = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    def open(self) -> RecoveryReport:
        """Run recovery, then open the WAL for append."""
        os.makedirs(self.directory, exist_ok=True)
        report = recover(self.db, self.directory)
        self.recovery = report
        self.last_checkpoint_seq = report.checkpoint_seq
        self.last_checkpoint_hlc = report.checkpoint_hlc
        self.records_since_checkpoint = report.records_replayed
        self.wal = WriteAheadLog(os.path.join(self.directory, WAL_FILENAME),
                                 fsync=self.fsync,
                                 next_seq=report.next_wal_seq)
        self._note_agg_tokens()
        return report

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()
        self.closed = True

    # -- WAL records -------------------------------------------------------------

    def log_commit(self, ts: "HlcTimestamp",
                   writes: dict[str, "StagedWrite"],
                   refresh_meta: Optional[dict]) -> None:
        """Append one commit record. Called by ``Transaction.commit``
        *inside* the commit mutex, right after version installation, so
        the WAL orders commits exactly as they became visible."""
        assert self.wal is not None, "log_commit before open()"
        encoded_meta = None
        if refresh_meta is not None:
            encoded_meta = dict(refresh_meta,
                                action=refresh_meta["action"].value,
                                frontier=codec.encode(
                                    refresh_meta["frontier"]))
        self._append({
            "kind": "commit",
            "ts": codec.encode(ts),
            "writes": {name: codec.encode(write)
                       for name, write in sorted(writes.items())},
            "refresh": encoded_meta,
        })
        self.records_since_checkpoint += 1
        if encoded_meta is not None:
            name = encoded_meta["dt"]
            if encoded_meta["action"] == "no_data":
                # Replay re-runs note_no_data, which keeps checkpointed
                # accumulators valid — the token just moves with them.
                if name in self._checkpoint_agg:
                    self._checkpoint_agg[name] = encoded_meta["refresh_ts"]
            else:
                # A data-moving refresh after the checkpoint: replay
                # invalidates the store, so it is no longer covered.
                self._checkpoint_agg.pop(name, None)

    def log_ddl(self, ddl: str, data: dict, epoch: int) -> None:
        """Append one DDL record. Called from the catalog hooks (inside
        the catalog mutex) or database-level DDL (inside the commit
        mutex); ``epoch`` is the catalog epoch *after* the operation,
        which replay asserts to catch divergence early."""
        assert self.wal is not None, "log_ddl before open()"
        self._append({
            "kind": "ddl",
            "ddl": ddl,
            "wall": self.db.clock.now(),
            "epoch": epoch,
            "data": codec.encode(data),
        })
        # Advisory counter only (status reporting); the WAL mutex
        # serializes the appends themselves, and a lost increment can at
        # worst understate the status line.
        self.records_since_checkpoint += 1  # eng: allow-ENG104 (advisory)

    # -- WAL failure escalation ----------------------------------------------------

    def _append(self, payload: dict) -> None:
        """Append one record, escalating a write failure per the
        configured policy: ``"readonly"`` marks the database degraded
        and fails the caller (the in-flight commit/DDL raises before any
        in-memory state changed — the WAL is written *before* apply);
        ``"continue"`` records the loss and lets the caller proceed
        without durability for this record."""
        assert self.wal is not None
        try:
            self.wal.append(payload)
        except (OSError, InjectedFault) as exc:
            self.wal_failures += 1  # eng: allow-ENG104 (advisory)
            if self.wal_failure_policy == "readonly":
                # Written under the caller's serialization (commit mutex
                # for commits, catalog mutex for DDL); a racy unlocked
                # read in check_writable is fail-safe — it can only miss
                # the *newest* degradation for one in-flight commit,
                # whose own append then fails and re-marks it.
                self.degraded = (  # eng: allow-ENG104 (fail-safe flag)
                    f"{type(exc).__name__}: {exc}")
                raise DurabilityError(
                    f"WAL write failed ({exc}); the database is now in "
                    f"degraded read-only mode — reads keep serving the "
                    f"last durable state, writes are refused until "
                    f"exit_degraded()") from exc
            # "continue": an explicit opt into losing this record's
            # durability; status() reports the count.

    def check_writable(self) -> None:
        """Raise if the database is in degraded read-only mode. Called
        by ``Transaction.commit`` for write transactions (reads never
        pass through here)."""
        if self.degraded is not None:
            raise DurabilityError(
                f"database is in degraded read-only mode "
                f"({self.degraded}); writes are refused — call "
                f"exit_degraded() once the storage fault is resolved")

    def exit_degraded(self) -> None:
        """Leave degraded read-only mode (the operator action after the
        underlying storage fault is fixed)."""
        self.degraded = None

    # -- checkpoints ---------------------------------------------------------------

    def checkpoint(self) -> str:
        """Snapshot the database, install the checkpoint file, truncate
        the WAL behind it. Returns the checkpoint file's path."""
        assert self.wal is not None, "checkpoint before open()"
        with self._checkpoint_mutex:
            # Lock order matches the cloning path: commit mutex first,
            # then the catalog mutex.
            with self.db.txns.commit_mutex:
                with self.db.catalog._mutex:
                    seq = self.last_checkpoint_seq + 1
                    last_wal_seq = self.wal.next_seq - 1
                    snapshot = ckpt.snapshot_database(self.db, seq,
                                                      last_wal_seq)
                    # A failure here (real or injected) aborts the
                    # checkpoint *before* the WAL reset: the previous
                    # checkpoint and the full WAL stay intact, so no
                    # durable state is lost — the checkpoint simply
                    # didn't happen.
                    inject("checkpoint.write", seq=seq)
                    path = ckpt.write_checkpoint(self.directory, snapshot)
                    self.wal.reset()
                    self.last_checkpoint_seq = seq
                    self.last_checkpoint_hlc = self.db.txns.hlc.last
                    self.records_since_checkpoint = 0
                    self._note_agg_tokens()
            ckpt.prune_checkpoints(self.directory, self.keep_checkpoints)
            return path

    def maybe_checkpoint(self) -> bool:
        """Checkpoint iff the WAL has outgrown the configured threshold
        (the server calls this after every commit, outside the commit
        mutex)."""
        if (self.wal is None or self.closed
                or self.checkpoint_wal_bytes is None):
            return False
        if self.wal.position() < self.checkpoint_wal_bytes:
            return False
        self.checkpoint()
        return True

    # -- reporting -----------------------------------------------------------------

    def _note_agg_tokens(self) -> None:
        """Record, per DT, the interval token whose accumulator state is
        exactly captured on disk (just checkpointed) or parked for lazy
        restore (just recovered)."""
        tokens: dict[str, object] = {}
        for dt in self.db.dynamic_tables(include_hidden=True):
            store = dt.agg_state
            if store is None or store._dirty:
                continue
            if store._nodes and not ckpt.agg_store_serializable(store):
                continue
            if store._nodes or store._restored:
                tokens[dt.name] = store.advanced_to
        self._checkpoint_agg = tokens

    def agg_recovery_status(self, dt: "DynamicTable") -> Optional[str]:
        """``"intact"`` when a restart would restore the DT's aggregate
        accumulators exactly; ``"rebuild"`` when the next incremental
        refresh after a restart would reinitialize them; None when the
        DT carries no aggregate state at all."""
        store = dt.agg_state
        if store is None:
            return None
        token = self._checkpoint_agg.get(dt.name, _MISSING)
        if token is _MISSING or store._dirty or store.advanced_to != token:
            return "rebuild"
        return "intact"

    def status(self) -> dict:
        """Durability state for ``Database.durability_status`` and the
        EXPLAIN durability section."""
        report = self.recovery
        return {
            "directory": self.directory,
            "fsync": self.fsync,
            "degraded": self.degraded,
            "wal_failures": self.wal_failures,
            "wal_failure_policy": self.wal_failure_policy,
            "wal_bytes": self.wal.position() if self.wal is not None else 0,
            "next_wal_seq": (self.wal.next_seq
                             if self.wal is not None else 1),
            "records_since_checkpoint": self.records_since_checkpoint,
            "last_checkpoint_seq": self.last_checkpoint_seq,
            "last_checkpoint_hlc": self.last_checkpoint_hlc,
            "recovery": None if report is None else {
                "checkpoint_seq": report.checkpoint_seq,
                "records_replayed": report.records_replayed,
                "records_skipped": report.records_skipped,
                "torn_bytes": report.torn_bytes,
                "invalid_checkpoints": list(report.invalid_checkpoints),
            },
        }
