"""Key-probed endpoints in the join and window derivatives.

The inner-join and window rules read only the endpoint rows sharing a key
with the delta. Over a storage-backed source that read is a probe of the
partitions' key indexes (``VersionedTable.relation_matching``); over a
:class:`DictDeltaSource` it keys the whole endpoint. Both must give the
same change set — rows, ids and order — and the probe must cost what the
delta touches, not what the table holds.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro import Database
from repro.core.refresh import _FrontierDeltaSource
from repro.engine.types import group_key_columns
from repro.ivm.differentiator import DictDeltaSource, differentiate
from repro.plan import logical as lp
from repro.storage.table import VersionedTable
from repro.util.timeutil import MINUTE

#: Inner joins: one- and two-column keys, a residual conjunct, an
#: INT = FLOAT key (3 matches 3.0) and a TEXT key. Both key columns hold
#: NULLs.
JOINS = (
    "SELECT f.id, f.v, d.w FROM fact f JOIN dim d ON f.k1 = d.d1",
    "SELECT f.id, d.w FROM fact f JOIN dim d "
    "ON f.k1 = d.d1 AND f.k2 = d.w",
    "SELECT f.id, f.v, d.w FROM fact f JOIN dim d "
    "ON f.k1 = d.d1 AND f.v > d.w",
    "SELECT f.id, d.d2 FROM fact f JOIN dim d ON f.k1 = d.d2",
    "SELECT f.id, d.dt, d.w FROM dim d JOIN fact f ON d.dt = f.t",
)
#: Partitioned windows: a nullable key, a two-column key, a FLOAT key.
WINDOWS = (
    "SELECT id, k1, row_number() OVER (PARTITION BY k1 ORDER BY id) rn "
    "FROM fact",
    "SELECT id, row_number() OVER (PARTITION BY k1, t ORDER BY v, id) rn "
    "FROM fact",
    "SELECT d1, w, rank() OVER (PARTITION BY d2 ORDER BY w) r FROM dim",
)


def _fact_row(rng: random.Random, row_id: int) -> tuple:
    return (row_id, rng.choice([None, 0, 1, 2, 3, 4, 5]),
            rng.randrange(4), rng.choice([None, "a", "b", "c"]),
            rng.randrange(10))


def _dim_row(rng: random.Random, key: int) -> tuple:
    d1 = None if key % 7 == 6 else key % 6
    return (d1, None if d1 is None else float(d1),
            rng.choice([None, "a", "b", "c", "d"]), rng.randrange(4))


def _database(seed: int) -> tuple[Database, random.Random]:
    rng = random.Random(seed)
    db = Database()
    db.create_warehouse("wh")
    db.execute("CREATE TABLE fact(id int, k1 int, k2 int, t text, v int)")
    db.execute("CREATE TABLE dim(d1 int, d2 float, dt text, w int)")
    for name in ("fact", "dim"):
        # Small partitions: many per table, and DML rewrites some of them.
        db.catalog.versioned_table(name).partition_rows = 8
    db.prepare("INSERT INTO fact VALUES (?, ?, ?, ?, ?)").executemany(
        [_fact_row(rng, row_id) for row_id in range(120)])
    db.prepare("INSERT INTO dim VALUES (?, ?, ?, ?)").executemany(
        [_dim_row(rng, key) for key in range(30)])
    return db, rng


def _random_dml(db: Database, rng: random.Random, next_id: list) -> None:
    """One to four statements; now and then a wide one, so some deltas
    are larger than the table they would probe."""
    for __ in range(rng.randint(1, 4)):
        kind = rng.randrange(7)
        if kind == 0:
            rows = [_fact_row(rng, next_id[0] + i)
                    for i in range(rng.randint(1, 5))]
            next_id[0] += len(rows)
            db.prepare("INSERT INTO fact VALUES (?, ?, ?, ?, ?)").executemany(
                rows)
        elif kind == 1:
            low = rng.randrange(next_id[0])
            db.execute(f"UPDATE fact SET k1 = {rng.randrange(6)} "
                       f"WHERE id >= {low} AND id < {low + 3}")
        elif kind == 2:
            low = rng.randrange(next_id[0])
            db.execute(f"DELETE FROM fact WHERE id >= {low} "
                       f"AND id < {low + rng.choice([2, 2, 60])}")
        elif kind == 3:
            db.prepare("INSERT INTO dim VALUES (?, ?, ?, ?)").execute(
                _dim_row(rng, rng.randrange(100)))
        elif kind == 4:
            db.execute(f"UPDATE dim SET w = {rng.randrange(4)}, "
                       f"dt = 'b' WHERE d1 = {rng.randrange(6)}")
        elif kind == 5:
            db.execute(f"DELETE FROM dim WHERE w = {rng.randrange(4)} "
                       f"AND d1 = {rng.randrange(6)}")
        else:
            db.execute(f"UPDATE fact SET t = 'c', v = v + 1 "
                       f"WHERE k2 = {rng.randrange(4)} AND id < 40")


def _probe_vs_scan(db: Database, name: str):
    """Differentiate ``name``'s plan over its next refresh interval twice:
    through the storage-backed source (which probes) and through a
    :class:`DictDeltaSource` over the same endpoint relations (which has
    no probe). Returns both change sets and both stats."""
    engine = db.engine
    dt = db.dynamic_table(name)
    plan = engine.build_plan(dt)
    tables = {table: db.catalog.versioned_table(table)
              for table in set(lp.scans_of(plan))}
    new = {table: versioned.current_version
           for table, versioned in tables.items()}
    old = engine._frontier_versions(dt, new)
    probed = _FrontierDeltaSource(db.catalog, old, new)
    scanned = DictDeltaSource(
        {table: tables[table].relation(old[table]) for table in tables},
        {table: tables[table].relation(new[table]) for table in tables},
        {table: probed.scan_delta(table) for table in tables})
    return differentiate(plan, probed), differentiate(plan, scanned)


def _layout(changes) -> tuple:
    return (list(changes.actions), list(changes.row_ids),
            [list(column) for column in changes.columns])


@pytest.fixture
def probe_calls(monkeypatch) -> list:
    """Every ``relation_matching`` call, as ``(table, rows returned)``."""
    calls: list = []
    original = VersionedTable.relation_matching

    def spy(table, version, positions, keys):
        relation = original(table, version, positions, keys)
        calls.append((table.name, len(relation)))
        return relation

    monkeypatch.setattr(VersionedTable, "relation_matching", spy)
    return calls


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("parallel", [False, True],
                         ids=["serial", "parallel"])
def test_probe_matches_scan_byte_for_byte(seed, parallel, probe_calls):
    db, rng = _database(seed)
    if parallel:
        db.set_parallelism(4)
    names = []
    for index, sql in enumerate(JOINS + WINDOWS):
        names.append(f"dt{index}")
        db.create_dynamic_table(names[-1], sql, "1 minute", "wh")
    next_id = [120]
    for __ in range(12):
        # DML between refreshes: the old endpoint keeps partitions the
        # head has since rewritten, so probes read unindexed ones too.
        _random_dml(db, rng, next_id)
        _random_dml(db, rng, next_id)
        for name in names:
            (probe, probe_stats), (scan, scan_stats) = _probe_vs_scan(
                db, name)
            assert _layout(probe) == _layout(scan), name
            assert probe_stats.endpoint_rows <= scan_stats.endpoint_rows
        if parallel:
            db.run_for(MINUTE)  # DAG waves refresh on worker threads
        for name in names:
            if not parallel:
                db.refresh_dynamic_table(name)
            assert db.check_dvs(name)
    assert probe_calls, "no refresh took the probe path"
    assert any(rows == 0 for __, rows in probe_calls)  # keys matching nothing
    if parallel:
        db.set_parallelism(None)


# ---------------------------------------------------------------------------
# O(|delta|): exact counts
# ---------------------------------------------------------------------------

def _star(fact_rows: int) -> Database:
    """``dim`` of 100 keys; ``fact`` holds 10 rows on each of keys 1-3 and
    ``fact_rows - 30`` filler rows on keys 10-99, so the rows under keys
    1-3 are the same at every size."""
    db = Database()
    db.create_warehouse("wh")
    db.execute("CREATE TABLE dim(id int, name text)")
    db.execute("CREATE TABLE fact(id int, k int, v int)")
    db.prepare("INSERT INTO dim VALUES (?, ?)").executemany(
        [(key, f"n{key}") for key in range(100)])
    hot = [(row, 1 + row % 3, row) for row in range(30)]
    filler = [(row, 10 + row % 90, row) for row in range(30, fact_rows)]
    db.prepare("INSERT INTO fact VALUES (?, ?, ?)").executemany(hot + filler)
    db.create_dynamic_table(
        "enriched", "SELECT f.id, f.v, d.name FROM fact f "
        "JOIN dim d ON f.k = d.id", "1 minute", "wh")
    return db


def _latest(event_rows: int) -> Database:
    """A ``latest_block``-shaped dedupe over ``ev``: 100 hot (src, dst)
    pairs with one row each, the rest filler pairs that no insert below
    touches."""
    db = Database()
    db.create_warehouse("wh")
    db.execute("CREATE TABLE ev(id int, src int, dst int)")
    hot = [(row, row, 0) for row in range(100)]
    filler = [(row, 1000 + row, row % 50) for row in range(100, event_rows)]
    db.prepare("INSERT INTO ev VALUES (?, ?, ?)").executemany(hot + filler)
    db.create_dynamic_table(
        "latest", "SELECT src, dst, id FROM ev QUALIFY row_number() OVER "
        "(PARTITION BY src, dst ORDER BY id DESC) = 1", "1 minute", "wh")
    return db


@pytest.mark.parametrize("size", [2_000, 20_000])
def test_dimension_update_reads_only_its_keys(size):
    db = _star(size)
    db.execute("UPDATE dim SET name = 'renamed' WHERE id >= 1 AND id <= 3")
    record = db.refresh_dynamic_table("enriched")
    # Three keys x ten fact rows, whatever the fact table's size.
    assert record.ivm_stats.endpoint_rows == 30
    assert record.ivm_stats.delta_rows_in == 6
    assert db.check_dvs("enriched")


@pytest.mark.parametrize("size", [2_000, 20_000])
def test_window_insert_reads_only_changed_partitions(size):
    db = _latest(size)
    db.prepare("INSERT INTO ev VALUES (?, ?, ?)").executemany(
        [(size + row, row, 0) for row in range(100)])
    record = db.refresh_dynamic_table("latest")
    # Old endpoint: one row per hot pair; new endpoint: two.
    assert record.ivm_stats.endpoint_rows == 100 + 200
    assert db.check_dvs("latest")


def test_delta_larger_than_the_table_scans_it(probe_calls):
    db = _star(2_000)
    db.prepare("INSERT INTO fact VALUES (?, ?, ?)").executemany(
        [(10_000 + row, row % 100, row) for row in range(150)])
    record = db.refresh_dynamic_table("enriched")
    # 150 fact inserts against a 100-row dimension: one scan of dim.
    assert record.ivm_stats.endpoint_rows == 100
    assert probe_calls == []
    assert db.check_dvs("enriched")


def test_index_cache_holds_only_head_partitions():
    db = _star(3_000)
    fact, dim = (db.catalog.versioned_table(name) for name in ("fact", "dim"))
    fact.partition_rows = 64
    db.execute("DELETE FROM fact WHERE id >= 2000")  # rewrite into small ones
    db.refresh_dynamic_table("enriched")
    rng = random.Random(7)
    cached = {"fact": 0, "dim": 0}
    for round_ in range(50):
        if round_ % 2:
            low = rng.randrange(2000)
            db.execute(f"DELETE FROM fact WHERE id >= {low} "
                       f"AND id < {low + 5}")
        else:
            db.execute(f"UPDATE fact SET v = v + 1 "
                       f"WHERE id = {rng.randrange(2000)}")
        if round_ % 3 == 0:
            # The fact delta then probes the old dim endpoint, whose
            # partition this update replaces: its index must not be kept.
            key = rng.randrange(100)
            db.execute(f"UPDATE dim SET name = 'r{round_}' "
                       f"WHERE id = {key}")
        db.refresh_dynamic_table("enriched")
        for table in (fact, dim):
            assert set(table._key_indexes) <= (
                table.current_version.partition_ids)
            cached[table.name] += bool(table._key_indexes)
    assert cached["fact"] and cached["dim"]  # the probes did cache
    assert db.check_dvs("enriched")


def test_concurrent_probes_and_commits_cache_only_head_partitions():
    """Probing threads index the partition that the main thread's commits
    keep rewriting: no probe may cache a partition a commit has just
    removed, and every probe returns exactly the keyed rows of its
    version."""
    db = _star(1_000)
    fact = db.catalog.versioned_table("fact")
    fact.partition_rows = 256
    db.execute("DELETE FROM fact WHERE id >= 900")  # four partitions
    keys = set(group_key_columns([[1, 2, 3]], 3))
    stop = threading.Event()
    probes: list = []

    def probe() -> None:
        while not stop.is_set():
            version = fact.current_version
            got = fact.relation_matching(version, (1,), keys)
            if len(probes) < 400:
                probes.append((version, got.row_ids))

    threads = [threading.Thread(target=probe) for __ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for round_ in range(60):
            # Rows 0-59 (keys 1-3 among them) share the first partition.
            db.execute(f"UPDATE fact SET v = v + 1 WHERE id = {round_}")
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert set(fact._key_indexes) <= fact.current_version.partition_ids
    assert probes
    for version, row_ids in probes:
        whole = fact.relation(version)
        assert row_ids == [row_id for row_id, k in zip(whole.row_ids,
                                                        whole.columns[1])
                           if k in (1, 2, 3)]


def test_clone_probes_its_own_partitions(probe_calls):
    db = _star(2_000)
    db.clone_table("fact", "fact_copy")
    db.create_dynamic_table(
        "copy_enriched", "SELECT f.id, f.v, d.name FROM fact_copy f "
        "JOIN dim d ON f.k = d.id", "1 minute", "wh")
    db.execute("DELETE FROM fact_copy WHERE id = 0")
    db.execute("UPDATE dim SET name = 'x' WHERE id = 2")
    for name in ("enriched", "copy_enriched"):
        record = db.refresh_dynamic_table(name)
        assert record.ivm_stats.endpoint_rows <= 10 + 1
        assert db.check_dvs(name)
    assert {"fact", "fact_copy"} <= {table for table, __ in probe_calls}


def test_reopened_database_probes(tmp_path, probe_calls):
    path = str(tmp_path / "db")
    db = Database(path=path)
    db.create_warehouse("wh")
    db.execute("CREATE TABLE dim(id int, name text)")
    db.execute("CREATE TABLE fact(id int, k int, v int)")
    db.prepare("INSERT INTO dim VALUES (?, ?)").executemany(
        [(key, f"n{key}") for key in range(100)])
    db.prepare("INSERT INTO fact VALUES (?, ?, ?)").executemany(
        [(row, row % 100, row) for row in range(1_000)])
    db.create_dynamic_table(
        "enriched", "SELECT f.id, f.v, d.name FROM fact f "
        "JOIN dim d ON f.k = d.id", "1 minute", "wh")
    db.execute("UPDATE dim SET name = 'before' WHERE id = 4")
    db.refresh_dynamic_table("enriched")  # caches indexes, then dies
    db.checkpoint()
    db.close()

    db = Database(path=path)
    assert db.durability_status()["recovery"]["records_replayed"] == 0
    probe_calls.clear()
    db.execute("UPDATE dim SET name = 'after' WHERE id = 4")
    record = db.refresh_dynamic_table("enriched")
    assert record.ivm_stats.endpoint_rows == 10  # key 4: ten fact rows
    assert probe_calls == [("fact", 10)]
    assert db.check_dvs("enriched")
    db.close()
