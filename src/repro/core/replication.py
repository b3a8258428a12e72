"""Cross-region replication of dynamic tables (section 3.4).

"Cross-region replication of DTs allows users to easily move data between
regions for sharing or disaster recovery, creating an unprecedented level
of simplicity for global, highly available data platforms."

A "region" here is another :class:`~repro.api.Database` instance.
Replication copies the *physical* state — partitions by reference (they
are immutable), row ids preserved — which is what keeps delayed view
semantics intact on the replica:

* base tables arrive as zero-copy clones;
* each DT arrives with its storage, frontier, and data timestamp, the
  frontier re-pointed at the replica's version indexes;
* because row ids are preserved, the replica's next **incremental**
  refresh merges cleanly against the replicated contents — a failed-over
  region resumes exactly where the primary left off (the disaster-recovery
  story), with no reinitialization.

Replication is a snapshot operation (as in Snowflake, where replication
ships refreshed state periodically); call :func:`replicate_subgraph` again
to advance the replica to the primary's newer state.
"""

from __future__ import annotations

from repro.api import Database
from repro.core.dynamic_table import DynamicTable, RefreshRecord
from repro.core.evolution import record_dependencies
from repro.core.frontier import Frontier, SourceCursor
from repro.core.graph import DependencyGraph
from repro.errors import CatalogError, NotInitializedError


def replicate_subgraph(primary: Database, secondary: Database,
                       dt_names: list[str]) -> None:
    """Replicate the given DTs and everything they depend on.

    The replica's clock is advanced to the primary's so replicated data
    timestamps are in the replica's past. Warehouses referenced by the
    replicated DTs are created on the replica if missing (size 1 — the
    replica's operator re-sizes as needed).
    """
    if secondary.now < primary.now:
        secondary.clock.advance_to(primary.now)

    graph = DependencyGraph(primary.catalog)
    ordered: list[DynamicTable] = []
    seen: set[str] = set()
    for name in dt_names:
        for upstream in graph.upstream_closure(name):
            if upstream.name not in seen:
                seen.add(upstream.name)
                ordered.append(upstream)
        dt = primary.dynamic_table(name)
        if dt.name not in seen:
            seen.add(dt.name)
            ordered.append(dt)

    # Base tables first: the union of every replicated DT's dependencies.
    base_tables: set[str] = set()
    for dt in ordered:
        for dependency in dt.dependencies.values():
            if dependency.kind == "table":
                base_tables.add(dependency.name)
            elif dependency.kind == "view":
                _replicate_view(primary, secondary, dependency.name)
    for table_name in sorted(base_tables):
        _replicate_base_table(primary, secondary, table_name)

    for dt in ordered:
        _replicate_dynamic_table(primary, secondary, dt)


def _replicate_view(primary: Database, secondary: Database,
                    name: str) -> None:
    if secondary.catalog.exists(name):
        return
    definition = primary.catalog.view_definition(name)
    if definition is not None:
        secondary.catalog.create_view(name, "", definition)


def _replicate_base_table(primary: Database, secondary: Database,
                          name: str) -> None:
    source = primary.catalog.versioned_table(name)
    commit_ts = secondary.txns.hlc.now()
    if secondary.catalog.exists(name):
        # Refresh an existing replica: overwrite its contents with the
        # primary's current rows, preserving row ids.
        target = secondary.catalog.versioned_table(name)
        from repro.ivm.changes import Action, ChangeSet
        from repro.storage.table import StagedWrite

        contents = source.relation()
        changes = ChangeSet.signed(Action.INSERT, contents.row_ids,
                                   contents.columns)
        target.apply(StagedWrite(changeset=changes, overwrite=True),
                     commit_ts)
        return
    clone = source.clone(name, secondary.catalog.allocate_table_seq(),
                         commit_ts)
    secondary.catalog.create_table_entry(name, clone)


def _replicate_dynamic_table(primary: Database, secondary: Database,
                             dt: DynamicTable) -> None:
    if not dt.initialized or dt.frontier is None:
        raise NotInitializedError(
            f"cannot replicate uninitialized dynamic table {dt.name!r}")
    if secondary.catalog.exists(dt.name):
        raise CatalogError(
            f"{dt.name!r} already exists on the replica; drop it first")
    if not secondary.warehouses.exists(dt.warehouse):
        secondary.create_warehouse(dt.warehouse)

    commit_ts = secondary.txns.hlc.now()
    storage = dt.table.clone(dt.name,
                             secondary.catalog.allocate_table_seq(),
                             commit_ts)
    data_ts = dt.frontier.data_timestamp
    storage.register_refresh(data_ts, storage.current_version)

    replica = DynamicTable(
        name=dt.name, query_text=dt.query_text, query=dt.query,
        target_lag=dt.target_lag, warehouse=dt.warehouse,
        refresh_mode=dt.refresh_mode, table=storage,
        dependencies={}, incremental_supported=dt.incremental_supported,
        incremental_reasons=list(dt.incremental_reasons))
    replica.hidden = dt.hidden
    secondary.catalog.create_dynamic_entry(dt.name, replica)

    # Dependencies and the frontier are re-pointed at the replica's
    # catalog entities and version indexes.
    replica.dependencies = record_dependencies(dt.query, secondary.catalog)
    cursors = {}
    for source_name in dt.frontier.cursors:
        table = secondary.catalog.versioned_table(source_name)
        version = table.current_version
        cursors[source_name] = SourceCursor(source_name, version.index,
                                            version.commit_ts)
    replica.frontier = Frontier(data_ts, cursors)
    replica.initialized = True
    marker = RefreshRecord(data_timestamp=data_ts)
    marker.frontier = replica.frontier
    marker.table_rows_after = storage.row_count()
    replica.refresh_history.append(marker)
