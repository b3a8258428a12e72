"""Versioned tables: copy-on-write partition sets with time travel.

A :class:`VersionedTable` is the storage object behind both base tables and
dynamic tables. Every committed mutation produces a new
:class:`TableVersion` — an immutable set of partition ids stamped with the
transaction's HLC commit timestamp. Reading "as of" a time resolves the
version with the largest commit timestamp ≤ t (section 5.3 of the paper),
which is what makes delayed view semantics implementable: a refresh
evaluates its defining query against source versions resolved at its data
timestamp.

Dynamic tables additionally maintain the **refresh-timestamp → version**
mapping of section 5.3 ("we store a mapping from refresh timestamp to
commit timestamp for each DT's table versions"), exposed via
:meth:`VersionedTable.register_refresh` / :meth:`version_for_refresh`. A
missing entry raises :class:`~repro.errors.VersionNotFound` — the paper's
first production validation.

A table also answers key probes: :meth:`VersionedTable.relation_matching`
returns a version's rows whose key over some columns is in a given set,
reading each head-version partition through a lazily built
:meth:`~repro.storage.partition.Partition.key_index` instead of keying
every row. The indexes are derived from immutable partitions, so they are
never invalidated — only dropped when their partition leaves the head
version — and never checkpointed: a recovered table or a clone rebuilds
them on first probe.

A rewrite (``UPDATE``, ``DELETE``, the deletes of a refresh merge) gives
each replacement partition its edit
:class:`~repro.storage.partition.Lineage`, grouped from the locator
lookups the write makes anyway, so recording it costs O(edits). Lineage
is derived like the key indexes and never checkpointed either: a
restored partition has none, and a change query over it reads it whole,
as one over an insert, a recluster or an overwrite does.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Collection, Mapping, Optional, Sequence

from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.errors import ChangeIntegrityError, InternalError, VersionNotFound
from repro.faults import inject
from repro.ivm import rowid
from repro.ivm.changes import Action, ChangeSet
from repro.storage.partition import Lineage, Partition, build_partitions
from repro.txn.hlc import HLC_ZERO, HlcTimestamp
from repro.util.timeutil import Timestamp

#: Default micro-partition capacity, in rows.
DEFAULT_PARTITION_ROWS = 4096

#: How many materialized versions the per-table relation cache retains.
#: Long refresh histories produce unboundedly many versions; only the most
#: recently read few are worth keeping in memory.
RELATION_CACHE_VERSIONS = 8

#: Upper bound on HLC logical components, used when resolving a bare wall
#: timestamp: every commit at that wall clock is visible.
_MAX_LOGICAL = float("inf")


@dataclass(frozen=True)
class TableVersion:
    """One immutable version of a table."""

    index: int
    commit_ts: HlcTimestamp
    partition_ids: frozenset[int]
    #: True for versions created by data-equivalent maintenance
    #: (reclustering); the differ skips these (section 5.5.2).
    data_equivalent: bool = False
    #: Row ids this commit deleted or updated — its *conflict footprint*.
    #: Inserted rows are absent: their ids are freshly allocated at apply
    #: time, so no concurrent transaction can have staged a write against
    #: them. Row-level first-committer-wins intersects footprints.
    written_ids: frozenset[str] = frozenset()
    #: True when this commit replaced the table wholesale (overwrite
    #: refresh / INSERT OVERWRITE): it conflicts with every concurrent
    #: writer regardless of row ids.
    overwrote: bool = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TableVersion(#{self.index}, commit={self.commit_ts}, "
                f"partitions={len(self.partition_ids)})")


@dataclass
class StagedWrite:
    """Uncommitted DML staged by a transaction against one table.

    ``inserts`` is a column block — one array per table column, parallel
    to each other, ids assigned at apply time — that ``apply`` hands to
    :func:`~repro.storage.partition.build_partitions` as it is; ``[]``
    when nothing is inserted. The transaction stages it by reference and
    edits in place only arrays it copied itself (see
    :meth:`~repro.txn.manager.Transaction.insert_rows`).
    ``deletes`` are existing row ids; ``updates`` map an existing row id
    to its new contents (same identity), row-shaped because that is how
    an UPDATE produces them. ``changeset`` is the refresh-merge path: a
    consolidated :class:`ChangeSet` carrying explicit row ids and column
    arrays.
    """

    inserts: list[Sequence] = field(default_factory=list)
    deletes: set[str] = field(default_factory=set)
    updates: dict[str, tuple] = field(default_factory=dict)
    changeset: Optional[ChangeSet] = None
    overwrite: bool = False  # INSERT OVERWRITE: replace all contents

    @property
    def is_empty(self) -> bool:
        return (not self.inserts and not self.deletes and not self.updates
                and self.changeset is None and not self.overwrite)

    @property
    def is_blind_append(self) -> bool:
        """True when the write only inserts new rows. A blind append
        cannot lose anyone's update, so snapshot isolation's
        first-committer-wins validation does not apply to it — two
        transactions appending to one table may both commit."""
        return (bool(self.inserts) and not self.deletes
                and not self.updates and self.changeset is None
                and not self.overwrite)

    @property
    def written_row_ids(self) -> Optional[frozenset[str]]:
        """The existing row ids this write touches (its conflict
        footprint), or ``None`` for an overwrite — which touches every
        row, present and future, of the table. Inserts never contribute:
        their ids do not exist until apply time."""
        if self.overwrite:
            return None
        ids: set[str] = set(self.deletes)
        ids.update(self.updates)
        if self.changeset is not None:
            ids.update(self.changeset.under(Action.DELETE)[0])
        return frozenset(ids)


class VersionedTable:
    """A multi-versioned, micro-partitioned table."""

    def __init__(self, name: str, schema: Schema, table_seq: int,
                 partition_rows: int = DEFAULT_PARTITION_ROWS):
        self.name = name
        self.schema = schema
        self.table_seq = table_seq
        self.partition_rows = partition_rows
        self._partitions: dict[int, Partition] = {}
        self._versions: list[TableVersion] = [
            TableVersion(0, HLC_ZERO, frozenset())]
        #: Commit timestamps as (wall, logical) pairs, parallel to
        #: ``_versions``; bisected on the *full* HLC order so commits that
        #: share a wall clock still resolve deterministically.
        self._commit_keys: list[tuple[Timestamp, int]] = [
            (HLC_ZERO.wall, HLC_ZERO.logical)]
        self._next_row_seq = 0
        #: Row locator for the *latest* version: row_id -> partition id.
        self._locator: dict[str, int] = {}
        #: refresh data timestamp -> version index (dynamic tables only).
        self._refresh_versions: dict[Timestamp, int] = {}
        #: Bounded LRU of materialized relations keyed by version index.
        self._relation_cache: OrderedDict[int, Relation] = OrderedDict()
        self._relation_cache_limit = RELATION_CACHE_VERSIONS
        #: Recent change queries, (old index, new index) -> consolidated
        #: delta, kept by :func:`repro.streams.changes.changes_between`.
        self.change_queries: OrderedDict[tuple[int, int], ChangeSet] = (
            OrderedDict())
        #: Key indexes of head-version partitions, partition id -> key
        #: positions -> index, built on first probe. Refresh workers fill
        #: it concurrently, so writes hold ``_key_index_mutex``.
        self._key_indexes: dict[int, dict[tuple[int, ...], dict]] = {}
        self._key_index_mutex = threading.Lock()

    # -- version resolution ---------------------------------------------------

    @property
    def current_version(self) -> TableVersion:
        return self._versions[-1]

    @property
    def versions(self) -> list[TableVersion]:
        """A snapshot copy of all versions. O(V) — hot paths should use
        :meth:`version` / :attr:`version_count` instead."""
        return list(self._versions)

    def version(self, index: int) -> TableVersion:
        """O(1) access to the version with the given index."""
        return self._versions[index]

    @property
    def version_count(self) -> int:
        return len(self._versions)

    def version_at(self, point: Timestamp | HlcTimestamp) -> TableVersion:
        """The version with the largest commit timestamp ≤ ``point``
        (section 5.3's visibility rule for regular tables).

        ``point`` may be a plain wall timestamp — in which case every
        commit at that wall clock, whatever its logical component, is
        visible — or a full :class:`HlcTimestamp`, which discriminates
        between commits sharing a wall clock."""
        if isinstance(point, HlcTimestamp):
            key = (point.wall, point.logical)
        else:
            key = (point, _MAX_LOGICAL)
        index = bisect.bisect_right(self._commit_keys, key) - 1
        if index < 0:
            raise VersionNotFound(
                f"table {self.name!r} has no version at or before t={point}")
        return self._versions[index]

    def register_refresh(self, refresh_ts: Timestamp,
                         version: TableVersion) -> None:
        """Record that ``version`` carries the contents as of the refresh's
        data timestamp (the refresh-ts → commit-ts mapping of section 5.3)."""
        self._refresh_versions[refresh_ts] = version.index

    def version_for_refresh(self, refresh_ts: Timestamp) -> TableVersion:
        """Exact-match lookup used when one DT reads another (section 6.1's
        first validation: fail the refresh if the version is missing)."""
        index = self._refresh_versions.get(refresh_ts)
        if index is None:
            raise VersionNotFound(
                f"dynamic table {self.name!r} has no version for refresh "
                f"timestamp {refresh_ts}")
        return self._versions[index]

    def refresh_timestamps(self) -> list[Timestamp]:
        return sorted(self._refresh_versions)

    # -- reads ------------------------------------------------------------------

    def relation(self, version: TableVersion | None = None) -> Relation:
        """Materialize a version as a Relation (bounded LRU cache)."""
        if version is None:
            version = self.current_version
        cached = self._relation_cache.get(version.index)
        if cached is not None:
            try:
                self._relation_cache.move_to_end(version.index)
            except KeyError:
                # Concurrent reader evicted the entry between get and
                # move_to_end; the materialized relation itself is still
                # valid (immutable), so just serve it.
                pass
            return cached
        relation = self._materialize(sorted(version.partition_ids))
        self._relation_cache[version.index] = relation
        while len(self._relation_cache) > self._relation_cache_limit:
            self._relation_cache.popitem(last=False)
        return relation

    def _materialize(self, partition_ids: Sequence[int]) -> Relation:
        """Concatenate partitions into one relation by extending
        per-column accumulators with whole partition column arrays — no
        row tuples are ever built."""
        return Relation.concat(self.schema, map(self._partitions.__getitem__,
                                                partition_ids))

    def relation_pruned(self, version: TableVersion | None,
                        bounds: Sequence[tuple[int, str, object]]) -> Relation:
        """Materialize a version, skipping partitions whose zone maps prove
        no row can satisfy the pushed-down ``(column, op, value)`` bounds.

        The result preserves partition-id scan order, so it is the
        :meth:`relation` output minus rows the caller's predicate would
        reject anyway — pruning never changes query results."""
        if version is None:
            version = self.current_version
        ordered = sorted(version.partition_ids)
        kept = [partition_id for partition_id in ordered
                if self._partitions[partition_id].might_match(bounds)]
        if len(kept) == len(ordered):
            # Nothing pruned: serve the (cached) full materialization
            # instead of rebuilding an identical relation per call.
            return self.relation(version)
        return self._materialize(kept)

    def relation_matching(self, version: TableVersion,
                          positions: tuple[int, ...],
                          keys: Collection[tuple]) -> Relation:
        """The rows of ``version`` whose key over the columns at
        ``positions`` (a :func:`~repro.engine.types.group_key_columns`
        key) is in ``keys``.

        A head-version partition answers from its key index, so the cost
        follows the hits, not the table; a partition the head no longer
        holds is keyed row by row, once. Hits are read in ascending
        position per partition and partitions in id order: the result is
        exactly what keying every row of :meth:`relation` and keeping the
        matches gives — same rows, same ids, same order."""
        ids: list[str] = []
        columns: list[list] = [[] for __ in range(len(self.schema))]
        for partition_id in sorted(version.partition_ids):
            partition = self._partitions[partition_id]
            index = self._key_index(partition, positions)
            if index is None:
                hits = [row for row, key
                        in enumerate(partition.group_keys(positions))
                        if key in keys]
            elif len(keys) <= len(index):
                hits = sorted(row for key in keys
                              for row in index.get(key, ()))
            else:  # walk the partition's fewer keys: never more than a scan
                hits = sorted(row for key, rows in index.items()
                              if key in keys for row in rows)
            if len(hits) == len(partition):  # every row: no gather
                ids.extend(partition.row_ids)
                for accumulator, column in zip(columns, partition.columns):
                    accumulator.extend(column)
            elif hits:
                ids.extend(map(partition.row_ids.__getitem__, hits))
                for accumulator, column in zip(columns, partition.columns):
                    accumulator.extend(map(column.__getitem__, hits))
        return Relation.from_columns(self.schema, columns, ids)

    def _key_index(self, partition: Partition,
                   positions: tuple[int, ...]) -> Optional[dict]:
        """``partition``'s key index over ``positions``, built on first
        use and kept while the partition is in the head version; None for
        a partition outside the head with no index kept — older versions
        are read rarely, and :meth:`_install` could not drop an entry for
        a partition it never sees removed."""
        index = self._key_indexes.get(partition.id, {}).get(positions)
        if index is None and (
                partition.id in self.current_version.partition_ids):
            index = partition.key_index(positions)
            with self._key_index_mutex:
                if partition.id in self.current_version.partition_ids:
                    self._key_indexes.setdefault(
                        partition.id, {})[positions] = index
        return index

    def rows_by_id(self, version: TableVersion | None = None) -> dict[str, tuple]:
        relation = self.relation(version)
        return dict(relation.pairs())  # eng: allow-ENG003 (row-shaped result delivery)

    def row_count(self, version: TableVersion | None = None) -> int:
        if version is None:
            version = self.current_version
        return sum(len(self._partitions[pid]) for pid in version.partition_ids)

    def partitions_of(self, version: TableVersion) -> list[Partition]:
        return [self._partitions[pid] for pid in sorted(version.partition_ids)]

    def partition(self, partition_id: int) -> Partition:
        """O(1) access to one partition by id (change-query pruning)."""
        return self._partitions[partition_id]

    # -- mutation (called by the transaction manager at commit) ---------------

    def apply(self, write: StagedWrite, commit_ts: HlcTimestamp) -> TableVersion:
        """Apply a staged write, producing and installing a new version."""
        inject("storage.apply", table=self.name)
        if commit_ts <= self.current_version.commit_ts:
            raise InternalError(
                f"non-monotonic commit timestamp on table {self.name!r}")
        if write.changeset is not None:
            return self._apply_changeset(write.changeset, commit_ts,
                                         overwrite=write.overwrite)
        if write.overwrite:
            return self._apply_overwrite(write.inserts, commit_ts)
        return self._apply_dml(write, commit_ts)

    def _allocate_ids(self, count: int) -> list[str]:
        start = self._next_row_seq
        self._next_row_seq += count
        return [rowid.base_id(self.table_seq, start + offset)
                for offset in range(count)]

    def _checked_block(self, columns: Sequence[Sequence]) -> int:
        """The row count of an insert block, after checking that it holds
        one array per column of the schema, all of one length. A block
        off either way raises here, before anything is installed —
        slicing it into partitions would silently drop values."""
        if not columns:
            return 0
        if (len(columns) != len(self.schema)
                or len(set(map(len, columns))) != 1):
            raise InternalError(
                f"write to {self.name!r} carries an insert block that is "
                f"not {len(self.schema)} columns wide, every column as "
                f"long as the others")
        return len(columns[0])

    def _rewritten(self, edits: Mapping[int, list[str]], deletes,
                   updates) -> list[Partition]:
        """Replacements for the partitions keyed in ``edits`` with
        ``deletes`` and ``updates`` applied; ``edits`` maps each to the
        distinct ids of its rows they name. Built in ascending partition
        id: build order decides the new partitions' ids and hence the
        scan order, so it must not follow a set's (hash-seed dependent)
        iteration. A replacement that only lost rows keeps its parent's
        zone maps. One that left any of its parent's rows untouched
        records its :class:`~repro.storage.partition.Lineage`, which
        change queries read to skip those rows; when every row was
        edited there is nothing to skip."""
        added: list[Partition] = []
        for partition_id in sorted(edits):
            parent = self._partitions[partition_id]
            row_ids, columns, zone_maps = parent.edited(deletes, updates)
            edited_ids = edits[partition_id]
            lineage = (Lineage(partition_id, tuple(edited_ids))
                       if len(edited_ids) < len(parent) else None)
            added.extend(build_partitions(row_ids, columns,
                                          self.partition_rows, zone_maps,
                                          lineage))
        return added

    def _apply_dml(self, write: StagedWrite,
                   commit_ts: HlcTimestamp) -> TableVersion:
        # Partition id -> ids of its rows this write deletes or updates,
        # grouped from the locator lookups the checks make anyway.
        edits: defaultdict[int, list[str]] = defaultdict(list)
        for row_id in write.deletes:
            partition_id = self._locator.get(row_id)
            if partition_id is None:
                raise ChangeIntegrityError(
                    f"delete of nonexistent row {row_id} in {self.name!r}")
            edits[partition_id].append(row_id)
        for row_id, new_row in write.updates.items():
            partition_id = self._locator.get(row_id)
            if partition_id is None:
                raise ChangeIntegrityError(
                    f"update of nonexistent row {row_id} in {self.name!r}")
            if len(new_row) != len(self.schema):
                raise InternalError(
                    f"update of row {row_id} in {self.name!r} is not "
                    f"{len(self.schema)} columns wide")
            if row_id not in write.deletes:  # a deleted id is listed once
                edits[partition_id].append(row_id)
        count = self._checked_block(write.inserts)

        added = self._rewritten(edits, write.deletes, write.updates)
        added.extend(build_partitions(
            self._allocate_ids(count), write.inserts, self.partition_rows))
        footprint = frozenset(write.deletes) | frozenset(write.updates)
        return self._install(edits.keys(), added, commit_ts,
                             written_ids=footprint)

    def _apply_overwrite(self, columns: list[Sequence],
                         commit_ts: HlcTimestamp) -> TableVersion:
        count = self._checked_block(columns)
        removed = set(self.current_version.partition_ids)
        added = build_partitions(self._allocate_ids(count), columns,
                                 self.partition_rows)
        return self._install(removed, added, commit_ts, overwrote=True)

    def _apply_changeset(self, changes: ChangeSet, commit_ts: HlcTimestamp,
                         overwrite: bool = False) -> TableVersion:
        """Merge a consolidated change set (the refresh-merge of section
        5.4: "a merge operator ... applies the DELETE and INSERT actions to
        the DT itself"). Row ids come from the change set, and its columns
        are sliced straight into the new partitions."""
        changes.validate(self._locator if not overwrite else None)
        if overwrite:
            deleted: frozenset[str] = frozenset()
            touched: Collection[int] = self.current_version.partition_ids
            added: list[Partition] = []
        else:
            deleted = frozenset(changes.under(Action.DELETE)[0])
            edits: defaultdict[int, list[str]] = defaultdict(list)
            for row_id in deleted:
                edits[self._locator[row_id]].append(row_id)
            touched = edits.keys()
            added = self._rewritten(edits, deleted, {})
        added.extend(build_partitions(*changes.under(Action.INSERT),
                                      self.partition_rows))
        return self._install(touched, added, commit_ts, written_ids=deleted,
                             overwrote=overwrite)

    def clone(self, name: str, table_seq: int,
              commit_ts: HlcTimestamp) -> "VersionedTable":
        """Zero-copy clone (section 3.4): the new table shares this
        table's immutable partitions by reference — "copying only its
        metadata". The clone starts with one version holding the current
        partition set; future writes diverge independently (fresh row-id
        namespace via ``table_seq``)."""
        cloned = VersionedTable(name, self.schema, table_seq,
                                self.partition_rows)
        # Continue the source's row-sequence counter: the clone carries
        # rows under the source's id namespace, and a fresh counter could
        # collide with them when the two tables share a table_seq (which
        # happens under cross-database replication).
        cloned._next_row_seq = self._next_row_seq
        current = self.current_version
        for partition_id in current.partition_ids:
            cloned._partitions[partition_id] = self._partitions[partition_id]
        version = TableVersion(1, commit_ts, current.partition_ids)
        cloned._versions.append(version)
        cloned._commit_keys.append((commit_ts.wall, commit_ts.logical))
        for partition_id in current.partition_ids:
            for row_id in cloned._partitions[partition_id].row_ids:
                cloned._locator[row_id] = partition_id
        return cloned

    def recluster(self, commit_ts: HlcTimestamp) -> TableVersion:
        """Rewrite all partitions into normalized sizes without changing
        logical contents — a data-equivalent maintenance operation
        (section 5.5.2). The new version is flagged so the differ skips it."""
        current = self.current_version
        contents = self._materialize(sorted(current.partition_ids))
        removed = set(current.partition_ids)
        added = build_partitions(contents.row_ids, contents.columns,
                                 self.partition_rows)
        return self._install(removed, added, commit_ts, data_equivalent=True)

    def _install(self, removed: Collection[int], added: list[Partition],
                 commit_ts: HlcTimestamp,
                 data_equivalent: bool = False,
                 written_ids: frozenset[str] = frozenset(),
                 overwrote: bool = False) -> TableVersion:
        current = self.current_version
        partition_ids = (current.partition_ids - frozenset(removed)) | frozenset(
            partition.id for partition in added)
        version = TableVersion(len(self._versions), commit_ts,
                               frozenset(partition_ids), data_equivalent,
                               written_ids, overwrote)
        for partition in added:
            self._partitions[partition.id] = partition
            for row_id in partition.row_ids:
                self._locator[row_id] = partition.id
        for partition_id in removed:
            for row_id in self._partitions[partition_id].row_ids:
                if self._locator.get(row_id) == partition_id:
                    del self._locator[row_id]
        self._versions.append(version)
        self._commit_keys.append((commit_ts.wall, commit_ts.logical))
        # After the append: a probe that checks the head under the mutex
        # either caches before this drop or sees the new head.
        with self._key_index_mutex:
            for partition_id in removed:
                self._key_indexes.pop(partition_id, None)
        return version

    # -- durability ---------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Checkpointable state, as plain Python objects. Partition
        *contents* are not included — checkpoints pool partitions across
        tables (clones share them by reference) and store only ids here;
        see :mod:`repro.durability.checkpoint`."""
        return {
            "name": self.name,
            "schema": self.schema,
            "table_seq": self.table_seq,
            "partition_rows": self.partition_rows,
            "next_row_seq": self._next_row_seq,
            "partition_ids": sorted(self._partitions),
            "versions": [(version.index, version.commit_ts,
                          sorted(version.partition_ids),
                          version.data_equivalent)
                         for version in self._versions],
            "refresh_versions": sorted(self._refresh_versions.items()),
        }

    @classmethod
    def from_snapshot(cls, state: dict,
                      partitions: dict[int, Partition]) -> "VersionedTable":
        """Rebuild a table from :meth:`snapshot_state` output.

        ``partitions`` maps the *snapshotted* partition ids to restored
        :class:`Partition` objects (whose process-local ids are fresh);
        sharing the same map across tables preserves zero-copy clone
        sharing through a checkpoint/restore cycle.
        """
        table = cls(state["name"], state["schema"], state["table_seq"],
                    state["partition_rows"])
        table._next_row_seq = state["next_row_seq"]
        table._partitions = {partitions[old_id].id: partitions[old_id]
                             for old_id in state["partition_ids"]}
        versions: list[TableVersion] = []
        commit_keys: list[tuple[Timestamp, int]] = []
        # Conflict footprints are not checkpointed: every transaction
        # started after a restore snapshots at or past the restored head,
        # so pre-checkpoint versions can never be conflict candidates.
        for index, commit_ts, partition_ids, data_equivalent in state["versions"]:
            versions.append(TableVersion(
                index, commit_ts,
                frozenset(partitions[old_id].id for old_id in partition_ids),
                data_equivalent))
            commit_keys.append((commit_ts.wall, commit_ts.logical))
        table._versions = versions
        table._commit_keys = commit_keys
        locator: dict[str, int] = {}
        for partition_id in versions[-1].partition_ids:
            for row_id in table._partitions[partition_id].row_ids:
                locator[row_id] = partition_id
        table._locator = locator
        table._refresh_versions = dict(state["refresh_versions"])
        return table

    # -- introspection -----------------------------------------------------------

    def partition_count(self, version: TableVersion | None = None) -> int:
        if version is None:
            version = self.current_version
        return len(version.partition_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"VersionedTable({self.name!r}, rows={self.row_count()}, "
                f"versions={len(self._versions)})")
