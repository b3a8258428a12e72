"""Bridging live executions to the isolation formalism.

The section-4 formalism (:mod:`repro.isolation`) analyzes *histories*;
this module reconstructs a history from a running
:class:`~repro.api.Database`:

* every committed version of a **base table** becomes a
  :class:`~repro.isolation.history.Write` (environmental information);
* every committed **dynamic-table refresh** becomes a
  :class:`~repro.isolation.history.Derive` whose sources are the frontier
  versions it consumed — pure computation, exactly as section 4 states:
  "In Snowflake, all DT refreshes consist exclusively of derivation
  operations";
* queries observed through :class:`RecordingReader` become
  :class:`~repro.isolation.history.Read` events of the versions they
  actually resolved.

This lets tests and examples demonstrate the paper's central claim on
*real executions*: querying two DTs with mismatched data timestamps
produces a G-single cycle (read skew) that the classic model would miss,
while reading a single DT stays clean.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.api import Database, QueryResult
from repro.core.dynamic_table import DynamicTable
from repro.engine.executor import evaluate
from repro.engine.expressions import EvalContext
from repro.isolation.history import (Derive, Event, History, Read, Version,
                                     Write)
from repro.plan.builder import build_plan
from repro.sql import nodes as n
from repro.sql.parser import parse_statement
from repro.errors import UserError
from repro.txn.manager import VersionReader, snapshot_pin
from repro.util.timeutil import Timestamp


@dataclass
class ObservedRead:
    """One query's resolved source versions."""

    reader_txn: int
    versions: list[Version] = field(default_factory=list)


class RecordingReader(VersionReader):
    """A snapshot resolver that records which table versions it serves."""

    def __init__(self, db: Database, wall: Timestamp, observed: ObservedRead):
        snapshot = snapshot_pin(db.catalog, wall)

        def pin(table: str):
            versioned, version = snapshot(table)
            observed.versions.append(Version(table, version.index))
            return versioned, version

        super().__init__(pin)


class HistoryRecorder:
    """Reconstructs an isolation history from a database's state plus any
    reads observed through :meth:`query`."""

    def __init__(self, db: Database):
        self._db = db
        self._reads: list[ObservedRead] = []
        # Reader transactions get ids far above any synthetic writer id.
        self._reader_ids = itertools.count(1_000_000)

    # -- observing reads ---------------------------------------------------------

    def query(self, sql: str, wall: Timestamp | None = None) -> QueryResult:
        """Run a query, recording the exact versions it read."""
        statement = parse_statement(sql)
        if not isinstance(statement, n.Query):
            raise UserError("HistoryRecorder.query requires a SELECT")
        if wall is None:
            wall = self._db.clock.now()
        observed = ObservedRead(next(self._reader_ids))
        self._reads.append(observed)
        plan = build_plan(statement.select, self._db.catalog,
                          self._db.registry)
        reader = RecordingReader(self._db, wall, observed)
        ctx = EvalContext(timestamp=wall)
        return QueryResult.from_relation(evaluate(plan, reader, ctx))

    # -- reconstruction ------------------------------------------------------------

    def history(self) -> History:
        """Build the history: writes for base-table versions, derivations
        for DT refreshes, reads for the observed queries."""
        events: list[Event] = []
        version_order: dict[str, list[Version]] = {}
        #: (table, version index) -> synthetic installer txn id.
        txn_ids: dict[tuple[str, int], int] = {}
        next_txn = itertools.count(1)

        def installer_txn(table: str, index: int) -> int:
            key = (table, index)
            if key not in txn_ids:
                txn_ids[key] = next(next_txn)
            return txn_ids[key]

        # Base tables: every non-empty version is a Write.
        for entry in self._db.catalog.entries(kind="table",
                                              include_dropped=True):
            versioned = self._db.catalog.versioned_table(entry.name) \
                if not entry.dropped else entry.payload
            order: list[Version] = []
            for index in range(1, versioned.version_count):
                version = versioned.version(index)
                v = Version(entry.name, version.index)
                order.append(v)
                events.append(Write(installer_txn(entry.name, version.index), v))
            if order:
                version_order[entry.name] = order

        # Dynamic tables: every successful refresh is a Derive over the
        # frontier versions it consumed.
        for entry in self._db.catalog.entries(kind="dynamic table",
                                              include_dropped=True):
            dt = entry.payload
            assert isinstance(dt, DynamicTable)
            order = []
            for record in dt.refresh_history:
                if not record.succeeded or record.frontier is None:
                    continue
                table_version = dt.table.version_for_refresh(
                    record.data_timestamp)
                derived = Version(dt.name, table_version.index)
                sources = tuple(
                    Version(cursor.table, cursor.version_index)
                    for cursor in sorted(record.frontier.cursors.values(),
                                         key=lambda c: c.table))
                if derived in {v for v in order}:
                    continue  # NO_DATA refreshes reuse the version
                order.append(derived)
                events.append(Derive(
                    installer_txn(dt.name, table_version.index),
                    derived, sources))
            if order:
                version_order[dt.name] = order

        # Observed reads.
        for observed in self._reads:
            for version in observed.versions:
                if version.index == 0:
                    continue  # empty initial version carries no information
                events.append(Read(observed.reader_txn, version))

        return History(events, version_order)
