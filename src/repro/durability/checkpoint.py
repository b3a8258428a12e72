"""Checkpoints: point-in-time snapshots of the whole database.

A checkpoint file serializes, under the commit and catalog mutexes (so
it is a transactionally consistent cut):

* the micro-partitions — pooled by partition id across tables, so
  zero-copy clones that share partitions by reference keep sharing them
  after a restore (one stored copy, many referencing tables);
* every catalog entry (tables, views, dynamic tables) with its grants,
  entity id, generation, and dropped flag, plus the DDL log and the
  three catalog counters (ddl seq / table seq / entity id) whose
  continuity keeps row-id namespaces and query evolution's
  REINITIALIZE detection correct across a restart;
* per-DT state: defining query AST, frontier, refresh marker, and the
  aggregate accumulator store (:mod:`repro.ivm.aggstate`) — group keys,
  counts, and per-accumulator internals, restored lazily when the next
  refresh claims the node with a matching structural signature;
* the HLC and the simulated clock.

File layout (format version 1): one header line ``RPRCKPT1 <crc32>\\n``
followed by the JSON body; the CRC covers the body bytes, so a torn or
corrupted checkpoint is detected on load and recovery falls back to the
previous one. Files are written to a temp name and :func:`os.replace`d
into ``checkpoint-<seq>.ckpt``, so a crash mid-write never destroys an
older checkpoint. The compatibility rule matches the WAL's: format
version N files are read only by engines at format version N.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.dynamic_table import (DynamicTable, RefreshAction,
                                      RefreshRecord, apply_policy_options,
                                      policy_options)
from repro.durability import codec
from repro.engine.aggregates import (AvgAccumulator, CountAccumulator,
                                     CountIfAccumulator, CountStarAccumulator,
                                     DistinctAccumulator, ExtremeAccumulator,
                                     SumAccumulator, _extreme)
from repro.engine import types as t
from repro.errors import DurabilityError
from repro.ivm.aggstate import (AggregateNodeState, AggStateStore,
                                DistinctNodeState, _Group)
from repro.storage.catalog import Catalog, CatalogEntry
from repro.storage.partition import Partition
from repro.storage.table import VersionedTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.database import Database

CHECKPOINT_MAGIC = "RPRCKPT1"
FORMAT_VERSION = 1

#: Exact accumulator classes the checkpoint can serialize, with their
#: on-disk tags. ``make_accumulator`` must produce the same class for the
#: plan's call at restore time, or the node falls back to lazy
#: reinitialization.
_ACC_TAGS = {
    CountStarAccumulator: "count_star",
    CountAccumulator: "count",
    CountIfAccumulator: "count_if",
    SumAccumulator: "sum",
    AvgAccumulator: "avg",
    ExtremeAccumulator: "extreme",
    DistinctAccumulator: "distinct",
}


# ---------------------------------------------------------------------------
# Aggregate state
# ---------------------------------------------------------------------------

def _snapshot_accumulator(acc: Any) -> Optional[dict]:
    tag = _ACC_TAGS.get(type(acc))
    if tag is None:
        return None
    if tag in ("count_star", "count", "count_if"):
        return {"t": tag, "count": acc.count}
    if tag in ("sum", "avg"):
        return {"t": tag, "total": codec.encode(acc.total),
                "count": acc.count}
    if tag == "extreme":
        return {"t": tag, "want_max": acc.want_max,
                "counts": codec.encode(acc.counts)}
    return {"t": tag, "function": acc.function, "total": codec.encode(acc.total),
            "counts": codec.encode(acc.counts)}


def _restore_accumulator(acc: Any, snap: dict) -> bool:
    """Fill a freshly made accumulator from its snapshot; False when the
    snapshot does not match the accumulator the live plan asks for."""
    if _ACC_TAGS.get(type(acc)) != snap["t"]:
        return False
    tag = snap["t"]
    if tag in ("count_star", "count", "count_if"):
        acc.count = snap["count"]
    elif tag in ("sum", "avg"):
        acc.total = codec.decode(snap["total"])
        acc.count = snap["count"]
    elif tag == "extreme":
        if acc.want_max != snap["want_max"]:
            return False
        acc.counts = codec.decode(snap["counts"])
        acc.best = (_extreme(list(acc.counts), acc.want_max)
                    if acc.counts else None)
    else:  # distinct
        if acc.function != snap["function"]:
            return False
        acc.counts = codec.decode(snap["counts"])
        acc.total = codec.decode(snap["total"])
    return True


def _snapshot_node(kind: str, state: object) -> Optional[dict]:
    if kind == "Aggregate":
        assert isinstance(state, AggregateNodeState)
        groups = []
        for group in state.groups.values():
            accs = [_snapshot_accumulator(acc) for acc in group.accumulators]
            if any(acc is None for acc in accs):
                return None
            groups.append({"kv": codec.encode(tuple(group.key_values)),
                           "count": group.count, "accs": accs})
        return {"initialized": state.initialized, "groups": groups}
    assert isinstance(state, DistinctNodeState)
    return {"initialized": state.initialized,
            "rows": [[entry[0], codec.encode(tuple(entry[1]))]
                     for entry in state.entries.values()]}


def snapshot_agg_store(store: Optional[AggStateStore]) -> Optional[dict]:
    """Serialize a DT's aggregate state store; ``nodes`` is None when any
    node holds an accumulator shape the checkpoint cannot serialize (the
    store then restores metadata-only and nodes reinitialize lazily)."""
    if store is None:
        return None
    nodes: Optional[list] = []
    for (kind, sequence), state in store._nodes.items():
        snap = _snapshot_node(kind, state)
        if snap is None:
            nodes = None
            break
        assert isinstance(state, (AggregateNodeState, DistinctNodeState))
        nodes.append({"kind": kind, "sequence": sequence,
                      "signature": state.signature, "state": snap})
    return {"fingerprint": codec.encode(store.fingerprint),
            "advanced_to": codec.encode(store.advanced_to),
            "dirty": store._dirty,
            "invalidations": list(store.invalidations),
            "nodes": nodes}


def _hydrate_aggregate(snap: dict) -> Callable:
    def hydrate(plan: Any) -> Optional[AggregateNodeState]:
        state = AggregateNodeState(plan)
        for stored in snap["groups"]:
            if len(stored["accs"]) != len(plan.aggregates):
                return None
            accumulators = []
            from repro.engine.aggregates import make_accumulator
            for call, acc_snap in zip(plan.aggregates, stored["accs"]):
                acc = make_accumulator(call)
                if not _restore_accumulator(acc, acc_snap):
                    return None
                accumulators.append(acc)
            key_values = codec.decode(stored["kv"])
            group = _Group(key_values, accumulators)
            group.count = stored["count"]
            state.groups[t.group_key(key_values)] = group
        state.initialized = snap["initialized"]
        return state
    return hydrate


def _hydrate_distinct(snap: dict) -> Callable:
    def hydrate(plan: Any) -> Optional[DistinctNodeState]:
        state = DistinctNodeState(plan)
        for count, row in snap["rows"]:
            decoded = codec.decode(row)
            state.entries[t.group_key(decoded)] = [count, decoded]
        state.initialized = snap["initialized"]
        return state
    return hydrate


def restore_agg_store(snap: Optional[dict]) -> Optional[AggStateStore]:
    if snap is None:
        return None
    store = AggStateStore()
    store.fingerprint = codec.decode(snap["fingerprint"])
    store.advanced_to = codec.decode(snap["advanced_to"])
    store._dirty = snap["dirty"]
    store.invalidations = list(snap["invalidations"])
    if snap["nodes"] is None:
        store.invalidations.append(
            "checkpoint could not serialize accumulator state")
    else:
        for node in snap["nodes"]:
            hydrate = (_hydrate_aggregate(node["state"])
                       if node["kind"] == "Aggregate"
                       else _hydrate_distinct(node["state"]))
            store._restored[(node["kind"], node["sequence"])] = (
                node["signature"], hydrate)
    return store


def agg_store_serializable(store: Optional[AggStateStore]) -> bool:
    """Whether a checkpoint taken now would capture the store's
    accumulators exactly (vs. metadata-only)."""
    if store is None:
        return False
    return all(_snapshot_node(key[0], state) is not None
               for key, state in store._nodes.items())


# ---------------------------------------------------------------------------
# Catalog entries
# ---------------------------------------------------------------------------

def _snapshot_dt(dt: DynamicTable) -> dict:
    marker = None
    for record in reversed(dt.refresh_history):
        if record.succeeded:
            marker = {"data_timestamp": record.data_timestamp,
                      "action": record.action.value if record.action else None,
                      "table_rows_after": record.table_rows_after,
                      "frontier": codec.encode(record.frontier)}
            break
    return {
        "name": dt.name,
        "query_text": dt.query_text,
        "query": codec.encode(dt.query),
        "target_lag": codec.encode(dt.target_lag),
        "warehouse": dt.warehouse,
        "refresh_mode": dt.refresh_mode.value,
        "dependencies": codec.encode(dt.dependencies),
        "incremental_supported": dt.incremental_supported,
        "incremental_reasons": list(dt.incremental_reasons),
        "initialized": dt.initialized,
        "suspended": dt.suspended,
        "suspended_reason": dt.suspended_reason,
        "hidden": dt.hidden,
        "consecutive_failures": dt.consecutive_failures,
        "options": policy_options(dt),
        "frontier": codec.encode(dt.frontier),
        "table": codec.encode(dt.table.snapshot_state()),
        "last_refresh": marker,
        "agg_state": snapshot_agg_store(dt.agg_state),
    }


def _restore_dt(snap: dict, partitions: dict[int, Partition]) -> DynamicTable:
    from repro.core.dynamic_table import RefreshMode

    table = VersionedTable.from_snapshot(codec.decode(snap["table"]),
                                         partitions)
    dt = DynamicTable(
        snap["name"], snap["query_text"], codec.decode(snap["query"]),
        codec.decode(snap["target_lag"]), snap["warehouse"],
        RefreshMode(snap["refresh_mode"]), table,
        codec.decode(snap["dependencies"]),
        snap["incremental_supported"], list(snap["incremental_reasons"]))
    dt.initialized = snap["initialized"]
    dt.suspended = snap["suspended"]
    dt.suspended_reason = snap.get("suspended_reason")
    dt.hidden = snap["hidden"]
    dt.consecutive_failures = snap["consecutive_failures"]
    # ``.get``: checkpoints written before the failure-policy options
    # existed restore with the defaults.
    options = snap.get("options")
    if options:
        apply_policy_options(dt, options)
    dt.frontier = codec.decode(snap["frontier"])
    marker = snap["last_refresh"]
    if marker is not None:
        # One marker record stands in for the pre-crash history: the
        # manual-refresh fast path returns history[-1] when the frontier
        # already matches, and lag metrics read the latest record.
        action = (RefreshAction(marker["action"])
                  if marker["action"] is not None else None)
        dt.refresh_history.append(RefreshRecord(
            data_timestamp=marker["data_timestamp"], action=action,
            table_rows_after=marker["table_rows_after"],
            frontier=codec.decode(marker["frontier"])))
    dt.agg_state = restore_agg_store(snap["agg_state"])
    return dt


def _snapshot_entry(entry: CatalogEntry) -> dict:
    # ``CatalogEntry.payload`` is typed ``object`` (the union lives in a
    # comment); ``kind`` is the discriminant, so go through Any here.
    source: Any = entry.payload
    if entry.kind == "table":
        payload = {"type": "table",
                   "table": codec.encode(source.snapshot_state())}
    elif entry.kind == "view":
        payload = {"type": "view", "view": codec.encode(source)}
    else:
        payload = {"type": "dynamic table", "dt": _snapshot_dt(source)}
    return {
        "name": entry.name,
        "kind": entry.kind,
        "owner": entry.owner,
        "created_at": entry.created_at,
        "entity_id": entry.entity_id,
        "generation": entry.generation,
        "dropped": entry.dropped,
        "grants": [[privilege, sorted(roles)]
                   for privilege, roles in sorted(entry.grants.items())],
        "payload": payload,
    }


def _restore_entry(snap: dict, partitions: dict[int, Partition],
                   ) -> CatalogEntry:
    payload_snap = snap["payload"]
    payload: object
    if payload_snap["type"] == "table":
        payload = VersionedTable.from_snapshot(
            codec.decode(payload_snap["table"]), partitions)
    elif payload_snap["type"] == "view":
        payload = codec.decode(payload_snap["view"])
    else:
        payload = _restore_dt(payload_snap["dt"], partitions)
    return CatalogEntry(
        name=snap["name"], kind=snap["kind"], payload=payload,
        owner=snap["owner"], created_at=snap["created_at"],
        entity_id=snap["entity_id"], generation=snap["generation"],
        dropped=snap["dropped"],
        grants={privilege: set(roles) for privilege, roles in snap["grants"]})


# ---------------------------------------------------------------------------
# Whole-database snapshot
# ---------------------------------------------------------------------------

def snapshot_database(db: "Database", checkpoint_seq: int,
                      last_wal_seq: int) -> dict:
    """Serialize the database. Callers must hold the commit mutex and the
    catalog mutex — the snapshot must not interleave with a commit's
    version installation or a DDL operation."""
    catalog: Catalog = db.catalog
    # Pool partitions by id: clones share Partition objects, and the
    # shared id is exactly what snapshot_state records per table.
    pool: dict[int, Partition] = {}
    for entry in catalog.entries(include_dropped=True):
        if entry.kind == "view":
            continue
        source: Any = entry.payload
        table = (source.table if entry.kind == "dynamic table"
                 else source)
        pool.update(table._partitions)
    partitions = {
        str(partition_id): {
            "row_ids": list(partition.row_ids),
            "columns": [codec.encode(list(column))
                        for column in partition.columns],
        }
        for partition_id, partition in sorted(pool.items())
    }
    ddl_seq, table_seq, entity_seq = catalog.counters()
    return {
        "format": FORMAT_VERSION,
        "checkpoint_seq": checkpoint_seq,
        "last_wal_seq": last_wal_seq,
        "clock": db.clock.now(),
        "hlc": codec.encode(db.txns.hlc.last),
        "catalog": {
            "ddl_seq": ddl_seq,
            "table_seq": table_seq,
            "entity_seq": entity_seq,
            "ddl_log": codec.encode(catalog.ddl_log),
            "entries": [_snapshot_entry(entry)
                        for entry in catalog._entries.values()],
        },
        # Warehouse definitions only: usage accounting (slots, activity,
        # credits) is simulation bookkeeping and is not durable.
        "warehouses": [{"name": wh.name, "size": wh.size,
                        "auto_suspend": wh.auto_suspend}
                       for wh in db.warehouses.all()],
        "partitions": partitions,
    }


def restore_database(db: "Database", snapshot: dict) -> None:
    """Load a snapshot into a freshly constructed database."""
    catalog: Catalog = db.catalog
    partitions: dict[int, Partition] = {}
    # Restore in ascending original-id order so the fresh process-local
    # ids preserve the originals' relative order (scan order, and thus
    # row order of full refreshes, stays deterministic across recovery).
    for key in sorted(snapshot["partitions"], key=int):
        stored = snapshot["partitions"][key]
        partitions[int(key)] = Partition.from_columns(
            tuple(stored["row_ids"]),
            tuple(tuple(codec.decode(column)) for column in stored["columns"]))
    cat = snapshot["catalog"]
    catalog.restore_counters(cat["ddl_seq"], cat["table_seq"],
                             cat["entity_seq"])
    catalog._ddl_log = codec.decode(cat["ddl_log"])
    catalog._entries = {}
    for entry_snap in cat["entries"]:
        entry = _restore_entry(entry_snap, partitions)
        catalog._entries[entry.name] = entry
    for stored in snapshot["warehouses"]:
        if not db.warehouses.exists(stored["name"]):
            db.warehouses.create(stored["name"], stored["size"],
                                 stored["auto_suspend"])
    if snapshot["clock"] > db.clock.now():
        db.clock.advance_to(snapshot["clock"])
    db.txns.hlc.observe(codec.decode(snapshot["hlc"]))


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------

def checkpoint_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"checkpoint-{seq:08d}.ckpt")


def write_checkpoint(directory: str, snapshot: dict) -> str:
    """Serialize, checksum, and atomically install a checkpoint file."""
    body = json.dumps(snapshot, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    header = f"{CHECKPOINT_MAGIC} {zlib.crc32(body):08x}\n".encode("ascii")
    path = checkpoint_path(directory, snapshot["checkpoint_seq"])
    temp = path + ".tmp"
    with open(temp, "wb") as handle:
        handle.write(header)
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
    return path


def load_checkpoint(path: str) -> dict:
    """Read and validate a checkpoint file."""
    with open(path, "rb") as handle:
        header = handle.readline()
        body = handle.read()
    parts = header.decode("ascii", errors="replace").split()
    if len(parts) != 2 or parts[0] != CHECKPOINT_MAGIC:
        raise DurabilityError(f"{path!r} is not a checkpoint file of "
                              f"format version {FORMAT_VERSION}")
    if f"{zlib.crc32(body):08x}" != parts[1]:
        raise DurabilityError(f"checkpoint {path!r} failed its checksum")
    snapshot: dict = json.loads(body.decode("utf-8"))
    if snapshot.get("format") != FORMAT_VERSION:
        raise DurabilityError(
            f"checkpoint {path!r} has unsupported format "
            f"{snapshot.get('format')!r} (this engine reads only "
            f"{FORMAT_VERSION})")
    return snapshot


def list_checkpoints(directory: str) -> list[tuple[int, str]]:
    """(seq, path) of every checkpoint file, newest first."""
    found: list[tuple[int, str]] = []
    for name in os.listdir(directory):
        if name.startswith("checkpoint-") and name.endswith(".ckpt"):
            try:
                seq = int(name[len("checkpoint-"):-len(".ckpt")])
            except ValueError:
                continue
            found.append((seq, os.path.join(directory, name)))
    found.sort(reverse=True)
    return found


def prune_checkpoints(directory: str, keep: int) -> None:
    for _seq, path in list_checkpoints(directory)[keep:]:
        os.unlink(path)
