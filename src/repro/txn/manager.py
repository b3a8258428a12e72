"""The transaction manager.

Section 5.1: "The transaction manager handles versioning of table
metadata, manages locks, tracks uncommitted changes, and atomically
commits transactions."

Model:

* a transaction gets a **snapshot** at begin; every read resolves the
  table version with the largest commit timestamp ≤ that snapshot
  (snapshot reads). The snapshot is either a plain wall time (the
  original single-threaded behaviour: every commit at that wall clock is
  visible) or — for multi-statement session transactions, via
  :meth:`TransactionManager.begin_at_latest` — a full HLC timestamp,
  which discriminates between commits sharing a wall clock. The HLC form
  is what makes snapshot isolation meaningful under the concurrent
  server front end, where many transactions run inside one simulated
  instant;
* reads inside a transaction additionally see the transaction's **own
  staged writes** (read-your-writes): staged inserts appear under
  provisional row ids, staged deletes vanish, staged updates replace the
  snapshot row. Nothing is visible to any other transaction until
  commit;
* writes are staged per table (:class:`~repro.storage.table.StagedWrite`)
  and applied atomically at commit under a single HLC commit timestamp;
* **savepoints** capture the staged-write state and can be restored
  without abandoning the transaction (``SAVEPOINT`` / ``ROLLBACK TO``);
* first-committer-wins: committing a write to a table that someone else
  committed to after our snapshot raises
  :class:`~repro.errors.LockConflict` (a write-write conflict under
  snapshot isolation);
* locks serialize dynamic-table refreshes (section 5.3) **and** the
  commit critical section: commit acquires the lock of every written
  table (in sorted order, so concurrent commits cannot deadlock) before
  validating and applying. Under the server's thread pool the lock
  manager blocks up to :attr:`TransactionManager.lock_timeout` seconds,
  so contended commits queue instead of failing spuriously.

Every storage-backed read of a pinned snapshot goes through one
:class:`VersionReader`. Dynamic-table refreshes use a transaction like any
DML, but read their *source* versions through readers pinned by
:mod:`repro.core.refresh` (regular tables as-of the data timestamp,
upstream DTs by exact refresh-timestamp match).
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Collection, Optional, Sequence, Union

from repro.engine.relation import Relation
from repro.errors import LockConflict, NotInitializedError, TransactionError
from repro.faults import inject
from repro.ivm.changes import ChangeSet
from repro.storage.catalog import Catalog
from repro.storage.table import StagedWrite, TableVersion, VersionedTable
from repro.txn.hlc import HlcTimestamp, HybridLogicalClock
from repro.util.timeutil import Timestamp

#: A transaction snapshot: a bare wall time (all commits at that wall are
#: visible) or a full HLC point (commits after it, even at the same wall,
#: are invisible).
Snapshot = Union[Timestamp, HlcTimestamp]


class _OverlayPartition:
    """A partition view with a transaction's deletes/updates applied —
    columnar (``row_ids`` + ``columns``) like the partition it overlays.

    Zone-map pruning stays sound for pure deletions (removing rows can
    never make a skipped partition match), so ``might_match`` delegates
    to the base partition then; a partition containing an *updated* row
    voids its zone maps and always reports a possible match.
    """

    __slots__ = ("row_ids", "columns", "_base", "_updated")

    def __init__(self, row_ids: list, columns: list, base, updated: bool):
        self.row_ids = row_ids
        self.columns = columns
        self._base = base
        self._updated = updated

    def might_match(self, bounds) -> bool:
        return True if self._updated else self._base.might_match(bounds)


class _StagedPartition:
    """A transaction's staged inserts as one synthetic columnar
    partition: the staged column block, adopted as it is."""

    __slots__ = ("row_ids", "columns")

    def __init__(self, row_ids: list, columns: list):
        self.row_ids = row_ids
        self.columns = columns

    def might_match(self, bounds) -> bool:
        return True  # no zone maps for uncommitted rows


def _overlay_partition_stream(partitions, deletes, updates, staged_ids,
                              staged_columns):
    for partition in partitions:
        if (deletes.isdisjoint(partition.row_ids)
                and updates.keys().isdisjoint(partition.row_ids)):
            yield partition
            continue
        row_ids, columns, kept_zone_maps = partition.edited(deletes, updates)
        if row_ids:
            yield _OverlayPartition(row_ids, columns, partition,
                                    updated=kept_zone_maps is None)
    if staged_columns:
        yield _StagedPartition(staged_ids, staged_columns)


class Transaction:
    """A single transaction: snapshot reads + staged writes.

    Implements the executor's SnapshotResolver protocol, so a plan can be
    evaluated directly "inside" a transaction — and, because :meth:`scan`
    overlays the transaction's own staged writes, a statement sequence
    like INSERT → SELECT → UPDATE inside one open transaction observes
    its earlier statements (read-your-writes).
    """

    def __init__(self, manager: "TransactionManager", txn_id: int,
                 snapshot: Snapshot):
        self._manager = manager
        self.id = txn_id
        self.snapshot = snapshot
        self._writes: dict[str, StagedWrite] = {}
        #: Provisional row ids of staged inserts, parallel to the arrays
        #: of each StagedWrite's ``inserts`` block. Real ids are allocated
        #: at apply time; these exist only so reads inside the transaction
        #: (and DML matching against them) have a stable identity.
        self._insert_ids: dict[str, list[str]] = {}
        #: Tables whose staged insert arrays are lists this transaction
        #: built and nobody else holds, so it may edit them in place. A
        #: block adopted from the caller, or handed to a read or a
        #: savepoint, is copied before its next edit (copy-on-write).
        self._owned_inserts: set[str] = set()
        self._provisional_seq = 0
        self._locked: list[str] = []
        #: (name, captured-state) pairs, oldest first.
        self._savepoints: list[tuple[str, dict]] = []
        self.committed: Optional[HlcTimestamp] = None
        self.aborted = False
        #: Per-table version overrides (used by refreshes to pin sources).
        self._version_overrides: dict[str, TableVersion] = {}
        #: The snapshot every read without an overlay goes through.
        self._reader = VersionReader(snapshot_pin(
            manager.catalog, snapshot, self._version_overrides))
        #: Refresh metadata riding on this transaction's WAL commit
        #: record (set by the refresh engine before commit): the frontier
        #: advance that recovery must replay alongside the data changes.
        #: A NO_DATA refresh commits no writes but still must be logged —
        #: its frontier advance is durable state.
        self.wal_meta: Optional[dict] = None

    @property
    def snapshot_wall(self) -> Timestamp:
        """The wall component of the snapshot (context-function time)."""
        if isinstance(self.snapshot, HlcTimestamp):
            return self.snapshot.wall
        return self.snapshot

    # -- reads (SnapshotResolver) ----------------------------------------------

    def scan(self, table: str) -> Relation:
        overlay = self._overlay(table)
        if overlay is None:
            return self._reader.scan(table)
        schema, partitions = overlay
        return Relation.concat(schema, partitions)

    def scan_pruned(self, table: str, bounds) -> Relation:
        """Zone-map pruned scan. With no staged writes on the table this
        is exactly the snapshot reader's pruned read; with an overlay it
        keeps the overlaid partitions that might match ``bounds`` (see
        :class:`_OverlayPartition` for why that stays sound)."""
        overlay = self._overlay(table)
        if overlay is None:
            return self._reader.scan_pruned(table, bounds)
        schema, partitions = overlay
        return Relation.concat(schema, (partition for partition in partitions
                                        if partition.might_match(bounds)))

    def scan_partitions(self, table: str):
        """Partition-granular reads (streaming cursors) inside a
        transaction: the overlay's partitions, in the rows, ids, and order
        of :meth:`scan`. The staged state is copied now, so a stream
        serves the overlay as of its creation even if later statements
        stage more writes.
        """
        overlay = self._overlay(table)
        if overlay is None:
            return self._reader.scan_partitions(table)
        return overlay[1]

    def _overlay(self, table: str):
        """``(schema, partitions)`` of ``table`` with this transaction's
        staged writes applied — the snapshot's partitions with deletes and
        updates applied (none after an overwrite), then one synthetic
        partition of the staged inserts — or None when it has nothing to
        overlay, and reads go straight to the pinned snapshot."""
        write = self._writes.get(table)
        if write is None or not self._overlays(write):
            return None
        versioned, version = self._reader.pin(table)
        partitions = ([] if write.overwrite
                      else versioned.partitions_of(version))
        self._owned_inserts.discard(table)  # the stream holds the arrays
        return versioned.schema, _overlay_partition_stream(
            partitions, frozenset(write.deletes), dict(write.updates),
            list(self._insert_ids.get(table, ())), list(write.inserts))

    @staticmethod
    def _overlays(write: StagedWrite) -> bool:
        """Whether a staged write participates in read-your-writes.

        Consolidated change sets (the refresh-merge path) are staged
        *after* the refresh finished reading its sources, so they never
        need to be — and are not — overlaid.
        """
        return bool(write.inserts or write.deletes or write.updates
                    or write.overwrite)

    def pin_version(self, table: str, version: TableVersion) -> None:
        """Pin reads of ``table`` to a specific version (refresh source
        resolution, section 5.3)."""
        self._version_overrides[table] = version

    # -- writes ------------------------------------------------------------------

    def _staged(self, table: str) -> StagedWrite:
        self._check_open()
        # Validate the entity exists (and is not dropped) at staging time.
        self._manager.catalog.versioned_table(table)
        return self._writes.setdefault(table, StagedWrite())

    def _provisional_ids(self, count: int) -> list[str]:
        start = self._provisional_seq
        self._provisional_seq += count
        return [f"txn:{self.id}:{seq}" for seq in range(start, start + count)]

    def _owned_block(self, table: str) -> list[list]:
        """``table``'s staged insert arrays as lists this transaction may
        edit in place — copied here first unless it already owns them."""
        staged = self._writes[table]
        if table not in self._owned_inserts:
            staged.inserts = [list(column) for column in staged.inserts]
            self._owned_inserts.add(table)
        return staged.inserts

    def insert_rows(self, table: str, columns: list[Sequence]) -> None:
        """Stage a column block of new rows — one array per table column.
        The first block a table gets is staged by reference and never
        edited in place; a later one is appended to the transaction's
        own copy of it."""
        staged = self._staged(table)
        count = len(columns[0]) if columns else 0
        if not count:
            return
        if staged.inserts:
            for column, new in zip(self._owned_block(table), columns,
                                   strict=True):
                column.extend(new)
        else:
            staged.inserts = list(columns)
            self._owned_inserts.discard(table)
        self._insert_ids.setdefault(table, []).extend(
            self._provisional_ids(count))

    def delete_rows(self, table: str, row_ids: list[str]) -> None:
        staged = self._staged(table)
        provisional = self._insert_ids.get(table, [])
        known = set(provisional)
        doomed: set[str] = set()
        for row_id in row_ids:
            if row_id in known:
                # Deleting a row this transaction inserted: unstage it.
                doomed.add(row_id)
                continue
            staged.deletes.add(row_id)
            # A delete supersedes any earlier staged update of the row.
            staged.updates.pop(row_id, None)
        if doomed:
            keep = [row_id not in doomed for row_id in provisional]
            provisional[:] = itertools.compress(provisional, keep)
            staged.inserts = ([list(itertools.compress(column, keep))
                               for column in staged.inserts]
                              if provisional else [])
            self._owned_inserts.add(table)

    def update_rows(self, table: str, updates: dict[str, tuple]) -> None:
        staged = self._staged(table)
        provisional = self._insert_ids.get(table, [])
        position = ({row_id: index
                     for index, row_id in enumerate(provisional)}
                    if provisional else {})
        for row_id, new_row in updates.items():
            index = position.get(row_id)
            if index is None:
                staged.updates[row_id] = new_row
                continue
            for column, value in zip(self._owned_block(table), new_row,
                                     strict=True):
                column[index] = value

    def overwrite(self, table: str, columns: list[Sequence]) -> None:
        """Stage a replacement of the table's whole contents by the column
        block ``columns`` (adopted by reference, as in
        :meth:`insert_rows`)."""
        staged = self._staged(table)
        staged.overwrite = True
        count = len(columns[0]) if columns else 0
        staged.inserts = list(columns) if count else []
        self._owned_inserts.discard(table)
        self._insert_ids[table] = self._provisional_ids(count)

    def stage_changeset(self, table: str, changes: ChangeSet,
                        overwrite: bool = False) -> None:
        staged = self._staged(table)
        if staged.changeset is not None or staged.inserts or staged.deletes:
            raise TransactionError(
                f"conflicting staged writes on {table!r} in one transaction")
        staged.changeset = changes
        staged.overwrite = overwrite

    # -- savepoints --------------------------------------------------------------

    def savepoint(self, name: str) -> None:
        """Capture the staged-write state under ``name``. Re-using a name
        replaces the earlier savepoint (SQL's destructive re-bind)."""
        self._check_open()
        self._savepoints = [(sp_name, state)
                            for sp_name, state in self._savepoints
                            if sp_name != name]
        self._savepoints.append((name, self._capture()))

    def rollback_to(self, name: str) -> None:
        """Restore the staged-write state captured by ``SAVEPOINT name``,
        discarding savepoints established after it (the savepoint itself
        survives and may be rolled back to again)."""
        self._check_open()
        for index in range(len(self._savepoints) - 1, -1, -1):
            sp_name, state = self._savepoints[index]
            if sp_name == name:
                self._restore(state)
                del self._savepoints[index + 1:]
                return
        raise TransactionError(f"no such savepoint: {name!r}")

    def _capture(self) -> dict:
        # The captured state shares the staged insert arrays: disown
        # them, so the next edit copies instead of editing the capture.
        self._owned_inserts.clear()
        writes = {}
        for table, write in self._writes.items():
            writes[table] = StagedWrite(
                inserts=list(write.inserts), deletes=set(write.deletes),
                updates=dict(write.updates), changeset=write.changeset,
                overwrite=write.overwrite)
        return {
            "writes": writes,
            "insert_ids": {table: list(ids)
                           for table, ids in self._insert_ids.items()},
            "provisional_seq": self._provisional_seq,
        }

    def _restore(self, state: dict) -> None:
        self._writes = {table: StagedWrite(
            inserts=list(write.inserts), deletes=set(write.deletes),
            updates=dict(write.updates), changeset=write.changeset,
            overwrite=write.overwrite)
            for table, write in state["writes"].items()}
        self._insert_ids = {table: list(ids)
                            for table, ids in state["insert_ids"].items()}
        self._owned_inserts.clear()  # the arrays are the savepoint's
        self._provisional_seq = state["provisional_seq"]

    # -- locks ---------------------------------------------------------------------

    def lock(self, table: str) -> None:
        self._manager.locks.acquire(table, self.id,
                                    timeout=self._manager.lock_timeout)
        self._locked.append(table)

    # -- lifecycle -----------------------------------------------------------------

    def _check_open(self) -> None:
        if self.committed is not None:
            raise TransactionError("transaction already committed")
        if self.aborted:
            raise TransactionError("transaction already aborted")

    def _conflicts(self, head: TableVersion) -> bool:
        """First-committer-wins: did ``head`` commit after our snapshot?"""
        if isinstance(self.snapshot, HlcTimestamp):
            return head.commit_ts > self.snapshot
        return head.commit_ts.wall > self.snapshot

    def _row_conflict(self, name: str,
                      table: VersionedTable) -> Optional[str]:
        """Row-level first-committer-wins: describe the conflict between
        our staged write on ``name`` and the versions committed after our
        snapshot, or return ``None`` if every intervening commit touched
        disjoint rows (in which case both writers may keep their commits
        — the generalization of the blind-append exemption).

        Runs inside the commit critical section, where the head cannot
        move. Data-equivalent versions (reclustering) are skipped like
        the differ skips them; an overwrite — ours or theirs — conflicts
        with everything, since it touches every row of the table.
        """
        ours = self._writes[name].written_row_ids
        snap_index = table.version_at(self.snapshot).index
        for index in range(snap_index + 1, table.version_count):
            version = table.version(index)
            if version.data_equivalent:
                continue
            if version.overwrote or ours is None:
                return (f"write-write conflict on {name!r}: committed at "
                        f"{version.commit_ts} after snapshot "
                        f"{self.snapshot}")
            overlap = version.written_ids & ours
            if overlap:
                sample = ", ".join(sorted(overlap)[:3])
                return (f"write-write conflict on {name!r}: row(s) "
                        f"{sample} committed at {version.commit_ts} "
                        f"after snapshot {self.snapshot}")
        return None

    def commit(self) -> HlcTimestamp:
        """Atomically apply all staged writes under one commit timestamp.

        The commit critical section — first-committer-wins validation
        plus version installation — runs while holding the lock of every
        written table, acquired in sorted name order so concurrent
        commits queue (or conflict) instead of deadlocking or interleaving.
        """
        self._check_open()
        catalog = self._manager.catalog
        written = sorted(name for name, write in self._writes.items()
                         if not write.is_empty)
        durability = self._manager.durability
        if written or self.wal_meta is not None:
            if durability is not None:
                # Degraded read-only mode (a WAL write failed earlier):
                # refuse the write before any lock or state change; reads
                # keep serving the last consistent versions.
                durability.check_writable()
            inject("txn.commit", tables=tuple(written))
        try:
            # Queue on the written tables' locks first (sorted order, so
            # concurrent commits cannot deadlock) — possibly blocking, so
            # this must happen *outside* the commit mutex.
            for name in written:
                self.lock(name)

            # The commit point proper — validation, timestamp issuance,
            # and version installation — is atomic with respect to
            # ``begin_at_latest``: a snapshot can never observe a commit
            # timestamp whose table versions are not all installed yet
            # (which would tear multi-table commits and repeatable reads).
            with self._manager.commit_mutex:
                # First-committer-wins validation, at row granularity.
                # Blind appends are exempt outright (an insert-only write
                # cannot lose an update); other writers conflict only
                # when their row footprint overlaps a version committed
                # after the snapshot — disjoint-row writers on one table
                # all commit. Refreshes pin their source versions and
                # hold the DT lock for the whole refresh, so overrides
                # stay exempt.
                for name in written:
                    table = catalog.versioned_table(name)
                    if (self._conflicts(table.current_version)
                            and not self._writes[name].is_blind_append
                            and name not in self._version_overrides):
                        conflict = self._row_conflict(name, table)
                        if conflict is not None:
                            raise LockConflict(conflict)

                commit_ts = self._manager.hlc.now()
                # WAL append inside the commit mutex, *before* any version
                # is installed (redo-log ordering): log order equals
                # commit order, the record hits stable storage before the
                # commit returns, and a WAL failure fails the commit with
                # zero in-memory mutation — memory never runs ahead of
                # the log. Empty transactions with no refresh metadata
                # are non-events and are not logged.
                if durability is not None and (written
                                               or self.wal_meta is not None):
                    durability.log_commit(
                        commit_ts,
                        {name: self._writes[name] for name in written},
                        self.wal_meta)
                for name in written:
                    catalog.versioned_table(name).apply(self._writes[name],
                                                        commit_ts)
        finally:
            self._release_locks()
        self.committed = commit_ts
        return commit_ts

    def abort(self) -> None:
        self._check_open()
        self._writes.clear()
        self._insert_ids.clear()
        self._savepoints.clear()
        self._release_locks()
        self.aborted = True

    def _release_locks(self) -> None:
        self._manager.locks.release_all(self.id)
        self._locked.clear()


#: A pin: the table to read and the version of it to read.
Pin = Callable[[str], tuple[VersionedTable, TableVersion]]


def snapshot_pin(catalog: Catalog, point: Snapshot,
                 overrides: Optional[dict[str, TableVersion]] = None) -> Pin:
    """Pin each table at its version as of ``point`` — unless
    ``overrides`` (a transaction's :meth:`~Transaction.pin_version` map,
    read at each call) names one. A dynamic table must have been
    refreshed at least once (:class:`NotInitializedError` otherwise)."""
    def pin(table: str) -> tuple[VersionedTable, TableVersion]:
        entry = catalog.get(table)
        if entry.kind == "dynamic table":
            ensure = getattr(entry.payload, "ensure_readable", None)
            if ensure is not None:
                ensure()
        versioned = catalog.versioned_table(table)
        version = overrides.get(table) if overrides else None
        return versioned, (version if version is not None
                           else versioned.version_at(point))
    return pin


class VersionReader:
    """The one way to read a pinned snapshot: every storage-backed
    resolver is this class over some ``pin(table) -> (VersionedTable,
    TableVersion)``.

    The pins: a snapshot point (:class:`SnapshotReader`, and a
    transaction's reads outside its own writes), a refresh's ``{table:
    version}`` map (:meth:`pinned`: its sources, and both endpoints of the
    interval it differentiates) and the history recorder's. Each read
    calls the storage method for its access path on the pinned version;
    the version is resolved when the read is made, not when its result
    is consumed — a streaming cursor serves exactly the snapshot of its
    execute() call even when later commits land at the same wall clock,
    and partitions are immutable, so iterating them lazily is safe.
    """

    def __init__(self, pin: Pin):
        self.pin = pin

    @classmethod
    def pinned(cls, catalog: Catalog,
               versions: dict[str, TableVersion]) -> "VersionReader":
        """A reader of each table at the version ``versions`` names."""
        return cls(lambda table: (catalog.versioned_table(table),
                                  versions[table]))

    def scan(self, table: str) -> Relation:
        versioned, version = self.pin(table)
        return versioned.relation(version)

    def scan_pruned(self, table: str, bounds) -> Relation:
        """Zone-map pruned scan (filters pushed down by the executor)."""
        versioned, version = self.pin(table)
        return versioned.relation_pruned(version, bounds)

    def scan_partitions(self, table: str):
        """The micro-partitions of the pinned version — the
        partition-granular read behind streaming cursors."""
        versioned, version = self.pin(table)
        return iter(versioned.partitions_of(version))

    def scan_matching(self, table: str, positions: tuple[int, ...],
                      keys: Callable[[], Collection[tuple]],
                      delta_rows: int) -> Optional[Relation]:
        """The rows of ``table`` whose key over ``positions`` is in
        ``keys()``, probed partition by partition — or None, without
        calling ``keys``, when the ``delta_rows``-row delta asking is not
        smaller than the table, where one scan is cheaper than that many
        probes."""
        versioned, version = self.pin(table)
        if delta_rows >= versioned.row_count(version):
            return None
        return versioned.relation_matching(version, positions, keys())


class SnapshotReader(VersionReader):
    """A read-only resolver at a fixed snapshot (no transaction state).

    The snapshot is a wall time (time-travel reads: every commit at that
    wall is visible) or a full HLC point (the consistent-read form
    :meth:`TransactionManager.reader` hands out by default).
    """

    def __init__(self, catalog: Catalog, wall: Snapshot):
        super().__init__(snapshot_pin(catalog, wall))


class TransactionManager:
    """Creates transactions and owns the HLC and lock table."""

    def __init__(self, catalog: Catalog,
                 physical_clock: Callable[[], Timestamp] = lambda: 0):
        from repro.txn.locks import LockManager

        self.catalog = catalog
        self.hlc = HybridLogicalClock(physical_clock)
        self.locks = LockManager()
        #: How long lock acquisition may block before raising
        #: :class:`LockConflict`. Zero (the default) preserves fail-fast
        #: logical locking; the server front end raises it so commit
        #: critical sections queue under contention.
        self.lock_timeout: float = 0.0
        #: Makes (timestamp issuance + version installation) atomic
        #: against snapshot acquisition: ``begin_at_latest`` must never
        #: see an HLC point whose versions are still being installed.
        self.commit_mutex = threading.Lock()
        #: Durability hook (:class:`repro.durability.DurabilityManager`);
        #: attached by Database *after* recovery, so replayed commits are
        #: never re-logged.
        self.durability = None
        self._physical_clock = physical_clock
        self._txn_ids = itertools.count(1)
        # Lock-timeout leasing (see lease_lock_timeout).
        self._lease_mutex = threading.Lock()
        self._lease_count = 0
        self._pre_lease_timeout = 0.0

    def lease_lock_timeout(self, timeout: float) -> None:
        """Raise :attr:`lock_timeout` for the lifetime of a lease.

        The server front end leases a blocking timeout so contended
        commits queue; the pre-lease value (the fail-fast surface the
        scheduler's skip logic relies on) returns when the *last* lease
        is released, so overlapping servers cannot clobber each other.
        """
        with self._lease_mutex:
            if self._lease_count == 0:
                self._pre_lease_timeout = self.lock_timeout
            self._lease_count += 1
            self.lock_timeout = timeout

    def release_lock_timeout(self) -> None:
        with self._lease_mutex:
            if self._lease_count == 0:
                return  # unbalanced release: nothing to restore
            self._lease_count -= 1
            if self._lease_count == 0:
                self.lock_timeout = self._pre_lease_timeout

    def begin(self, snapshot_wall: Timestamp | None = None) -> Transaction:
        """Begin a transaction; reads see data committed at or before
        ``snapshot_wall`` (defaults to the current physical time)."""
        if snapshot_wall is None:
            snapshot_wall = self._physical_clock()
        return Transaction(self, next(self._txn_ids), snapshot_wall)

    def begin_at_latest(self) -> Transaction:
        """Begin a transaction whose snapshot is the latest HLC point.

        Everything committed so far is visible; every later commit —
        including commits sharing the current wall clock, which is how
        *all* concurrent commits look under the simulated clock — is not.
        Session transactions use this form so snapshot isolation (and its
        first-committer-wins conflicts) behaves correctly under the
        multi-threaded server front end.
        """
        # Under the commit mutex: an in-flight commit has either fully
        # installed its versions (its timestamp is safe to include) or
        # not yet issued its timestamp (it is entirely after us).
        with self.commit_mutex:
            snapshot = self.hlc.last
        return Transaction(self, next(self._txn_ids), snapshot)

    def reader(self, wall: Timestamp | None = None) -> SnapshotReader:
        """A read-only snapshot resolver.

        With an explicit ``wall`` (time travel / AS-OF), visibility is
        wall-granular: every commit at that wall clock is included. With
        no argument, the snapshot is the latest HLC point taken under the
        commit mutex — so a concurrent multi-table commit is either
        entirely visible or entirely invisible, never torn, even for
        plain auto-commit reads under the server front end.
        """
        if wall is not None:
            return SnapshotReader(self.catalog, wall)
        with self.commit_mutex:
            return SnapshotReader(self.catalog, self.hlc.last)
