"""The randomized DVS workload test (the paper's section 6.1, level 4).

"Checking this assertion within a framework that generates random SQL
queries allows us to test the correctness of hundreds of thousands of
different DTs in a matter of hours. We run this workload test daily."

Here: random defining queries become DTs over a mutating star schema;
after every refresh (manual and scheduled, incremental and full) the
oracle re-runs the defining query at the frontier and compares.
"""

import random

import pytest

from repro import Database
from repro.core.dynamic_table import RefreshAction
from repro.util.timeutil import MINUTE
from repro.workload.generator import (QueryGenerator, UpdateWorkload,
                                      create_workload_schema)


def fresh_db(seed):
    db = Database()
    db.create_warehouse("wh")
    create_workload_schema(db)
    workload = UpdateWorkload(rng=random.Random(seed))
    workload.seed(db, facts=60, dims=8)
    return db, workload


@pytest.mark.parametrize("seed", range(6))
def test_random_queries_maintain_dvs(seed):
    db, workload = fresh_db(seed)
    generator = QueryGenerator(rng=random.Random(seed * 7 + 1))
    names = []
    for index in range(6):
        name = f"dt_{index}"
        db.create_dynamic_table(name, generator.query(), "1 minute", "wh")
        names.append(name)
    for step in range(6):
        workload.step(db)
        db.clock.advance(MINUTE)
        for name in names:
            db.refresh_dynamic_table(name)
            assert db.check_dvs(name)


@pytest.mark.parametrize("seed", range(3))
def test_full_only_queries_maintain_dvs(seed):
    """ORDER BY / LIMIT / scalar aggregates run in FULL mode; the oracle
    must hold there too (sorted comparison makes ORDER BY well-defined)."""
    db, workload = fresh_db(seed + 100)
    generator = QueryGenerator(rng=random.Random(seed), allow_full_only=True)
    names = []
    for index in range(4):
        name = f"dt_{index}"
        db.create_dynamic_table(name, generator.query(), "1 minute", "wh")
        names.append(name)
    for step in range(4):
        workload.step(db)
        db.clock.advance(MINUTE)
        for name in names:
            db.refresh_dynamic_table(name)
            assert db.check_dvs(name)


def test_scheduled_refreshes_maintain_dvs():
    db, workload = fresh_db(42)
    generator = QueryGenerator(rng=random.Random(42))
    names = []
    for index in range(4):
        name = f"dt_{index}"
        db.create_dynamic_table(name, generator.query(), "1 minute", "wh")
        names.append(name)
    for step in range(10):
        db.at((step + 1) * MINUTE, lambda: workload.step(db))
    db.run_for(12 * MINUTE)
    for name in names:
        assert db.check_dvs(name)
        history = db.dynamic_table(name).refresh_history
        assert any(r.action == RefreshAction.INCREMENTAL
                   or r.action == RefreshAction.FULL
                   for r in history if r.succeeded)


def test_stacked_random_dts_maintain_dvs():
    db, workload = fresh_db(7)
    db.create_dynamic_table(
        "layer1", "SELECT id, category, amount FROM facts WHERE amount > 10",
        "1 minute", "wh")
    db.create_dynamic_table(
        "layer2",
        "SELECT category, count(*) n, sum(amount) total FROM layer1 "
        "GROUP BY category", "downstream", "wh")
    db.create_dynamic_table(
        "layer3", "SELECT category, total FROM layer2 WHERE n > 1",
        "1 minute", "wh")
    for step in range(8):
        workload.step(db)
        db.clock.advance(MINUTE)
        db.refresh_dynamic_table("layer3")
        assert db.check_dvs("layer1")
        assert db.check_dvs("layer2")
        assert db.check_dvs("layer3")


def test_oracle_detects_corruption():
    """Sanity: the oracle actually fires when a DT's stored contents are
    tampered with (a corrupted merge would look like this)."""
    db, __ = fresh_db(1)
    db.create_dynamic_table("d", "SELECT id, amount FROM facts",
                            "1 minute", "wh")
    dt = db.dynamic_table("d")
    from repro.ivm.changes import Action, Change, ChangeSet
    from repro.storage.table import StagedWrite

    poison = ChangeSet([Change(Action.INSERT, "evil:1", (999_999, -1))])
    dt.table.apply(StagedWrite(changeset=poison), db.txns.hlc.now())
    with pytest.raises(AssertionError, match="DVS violation"):
        db.check_dvs("d")


def test_oracle_reads_whole_versions(monkeypatch):
    """The oracle must not share the refresh's access paths: with zone
    maps claiming no partition can match, initialization prunes every
    row of ``WHERE v > 0`` away, and only an oracle that reads whole
    versions still sees the rows the DT lost."""
    from repro.storage.partition import Partition

    db = Database()
    db.create_warehouse("wh")
    db.execute("CREATE TABLE t (k int, v int)")
    db.execute("INSERT INTO t VALUES (1, 5), (2, 7), (3, -1)")
    monkeypatch.setattr(Partition, "might_match", lambda self, bounds: False)
    db.create_dynamic_table("d", "SELECT k, v FROM t WHERE v > 0",
                            "1 minute", "wh")
    assert db.query("SELECT count(*) FROM d").rows == [(0,)]
    with pytest.raises(AssertionError, match="DVS violation"):
        db.check_dvs("d")
