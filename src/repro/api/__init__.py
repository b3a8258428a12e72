"""The public API: a layered Session/Cursor surface over one Database.

The package separates the **shared substrates** from **per-connection
state**, mirroring the paper's split between the multi-tenant frontend and
the refresh/IVM machinery:

* :class:`Database` (``database.py``) owns what every connection shares —
  catalog, versioned storage, transaction manager, refresh engine,
  scheduler, warehouses, and the parameter-aware plan cache;
* :class:`Session` (``session.py``) is one connection: default warehouse,
  AS-OF snapshot time, role, and the optional **open transaction**
  (``BEGIN`` / ``COMMIT`` / ``ROLLBACK`` / ``SAVEPOINT``, via SQL or the
  ``begin()``/``commit()``/``rollback()``/``transaction()`` API) — plus
  the statement dispatch and the API error boundary;
* :class:`PreparedStatement` (``prepared.py``) parses once and executes
  many times with ``?`` positional / ``:name`` named binds, skipping all
  parse and optimize work on re-execution via the plan cache;
* ``insert.py`` builds every INSERT's new rows column at a time, from the
  bind sets (or a SELECT's columns) to the staged column block;
* :class:`Cursor` (``cursor.py``) is the DB-API-flavored reader that
  streams SELECT results lazily, one micro-partition per pull;
* :class:`QueryResult` (``results.py``) is the materialized result the
  one-shot facade returns.

One-shot use (unchanged from the original single-object API)::

    from repro import Database
    from repro.util.timeutil import minutes

    db = Database()
    db.create_warehouse("trains_wh")
    db.execute("CREATE TABLE trains (id int, name text)")
    db.execute("INSERT INTO trains VALUES (1, 'express')")
    db.execute('''
        CREATE DYNAMIC TABLE arrivals
        TARGET_LAG = '1 minute' WAREHOUSE = trains_wh
        AS SELECT id, name FROM trains
    ''')
    db.run_for(minutes(10))          # simulated time; scheduler refreshes
    print(db.query("SELECT * FROM arrivals").rows)

Layered use — sessions, prepared statements, streaming cursors::

    session = db.session()
    session.use_warehouse("trains_wh")       # session default warehouse

    lookup = session.prepare(
        "SELECT name FROM trains WHERE id = ?")
    for train_id in ids:
        rows = lookup.query((train_id,)).rows  # no re-parse, no re-plan

    loader = session.prepare("INSERT INTO trains VALUES (:id, :name)")
    loader.executemany([{"id": 2, "name": "local"},
                        {"id": 3, "name": "night"}])  # one transaction

    cursor = session.cursor()
    cursor.execute("SELECT * FROM trains WHERE id >= ?", (0,))
    while page := cursor.fetchmany(1000):    # streamed per micro-partition
        handle(page)

Transactions — multi-statement atomicity with read-your-writes::

    with session.transaction():              # BEGIN ... COMMIT/ROLLBACK
        session.execute("INSERT INTO trains VALUES (9, 'owl')")
        session.execute("UPDATE trains SET name = 'night owl' WHERE id = 9")
        # visible here (read-your-writes), invisible to other sessions
        # until the block commits

Concurrency — the server front end (:mod:`repro.server`) executes many
sessions on a thread pool, retrying snapshot-isolation conflicts::

    with db.serve(workers=8) as server:
        server.run_transaction(lambda s: s.execute(
            "UPDATE trains SET name = 'renamed' WHERE id = 1"))

``Database.execute`` / ``query`` / ``execute_script`` delegate to an
implicit default session, so the facade is exactly the old single-object
API; SQL and programmatic surfaces keep dispatching onto the same
primitives. Auto-commit per statement remains the default everywhere.
"""

from repro.api.cursor import Cursor
from repro.api.database import Database
from repro.api.prepared import ParameterSpec, PreparedStatement
from repro.api.results import QueryResult
from repro.api.session import Session

__all__ = ["Cursor", "Database", "ParameterSpec", "PreparedStatement",
           "QueryResult", "Session"]
