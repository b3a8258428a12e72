"""Regression tests for the durability subsystem: WAL framing, the
tagged-JSON codec, checkpoint round-trips (including zero-copy clones
and schema evolution), aggregate-state coverage, and crash recovery.
The randomized kill-point test lives in ``test_durability_property.py``;
this file pins the individual mechanisms."""

import os

import pytest

from repro import Database
from repro.core.dynamic_table import RefreshAction
from repro.durability import codec
from repro.durability.wal import WAL_MAGIC, WriteAheadLog, scan_wal
from repro.errors import DurabilityError, UserError
from repro.txn.hlc import HlcTimestamp


def wal_path(directory) -> str:
    return os.path.join(str(directory), "wal.log")


# ---------------------------------------------------------------------------
# WAL framing
# ---------------------------------------------------------------------------


class TestWal:
    def test_append_scan_roundtrip(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        for i in range(3):
            wal.append({"kind": "test", "i": i})
        wal.close()
        scan = scan_wal(wal_path(tmp_path))
        assert [r.seq for r in scan.records] == [1, 2, 3]
        assert [r.payload["i"] for r in scan.records] == [0, 1, 2]
        assert scan.good_end == scan.file_size

    def test_torn_tail_is_ignored_and_truncated(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        wal.append({"kind": "test", "i": 0})
        good = wal.position()
        wal.close()
        with open(wal_path(tmp_path), "ab") as handle:
            handle.write(b"\xff\xff\xff\xff torn garbage")
        scan = scan_wal(wal_path(tmp_path))
        assert len(scan.records) == 1
        assert scan.good_end == good < scan.file_size
        # Reopening for append truncates the tail and continues the seq.
        reopened = WriteAheadLog(wal_path(tmp_path))
        assert os.path.getsize(wal_path(tmp_path)) == good
        assert reopened.append({"kind": "test", "i": 1}).seq == 2
        reopened.close()

    def test_mid_record_truncation_drops_only_the_tail(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        wal.append({"kind": "test", "i": 0})
        first_end = wal.position()
        wal.append({"kind": "test", "i": 1})
        wal.close()
        with open(wal_path(tmp_path), "r+b") as handle:
            handle.truncate(first_end + 5)  # cut inside record 2
        scan = scan_wal(wal_path(tmp_path))
        assert [r.payload["i"] for r in scan.records] == [0]
        assert scan.good_end == first_end

    def test_corrupted_record_body_stops_the_scan(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        wal.append({"kind": "test", "i": 0})
        first_end = wal.position()
        wal.append({"kind": "test", "i": 1})
        wal.close()
        with open(wal_path(tmp_path), "r+b") as handle:
            handle.seek(first_end + 8 + 2)  # inside record 2's payload
            handle.write(b"!")
        scan = scan_wal(wal_path(tmp_path))
        assert [r.payload["i"] for r in scan.records] == [0]

    def test_bad_magic_raises(self, tmp_path):
        path = wal_path(tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"NOTAWAL\x01" + b"x" * 32)
        with pytest.raises(DurabilityError):
            scan_wal(path)

    def test_format_version_is_three_and_older_versions_are_refused(
            self, tmp_path):
        # Format 2: a change set is logged columnar; format 3: staged
        # inserts too. An older log is refused outright — there is no
        # cross-version migration.
        path = wal_path(tmp_path)
        WriteAheadLog(path).close()
        with open(path, "rb") as handle:
            assert handle.read(len(WAL_MAGIC)) == b"RPRWAL\x00\x03"
        for older in (b"\x01", b"\x02"):
            with open(path, "wb") as handle:
                handle.write(b"RPRWAL\x00" + older)
            for refused in (scan_wal, WriteAheadLog):
                with pytest.raises(DurabilityError,
                                   match="not a WAL file of format "
                                         "version 3"):
                    refused(path)

    def test_seq_survives_reset(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        wal.append({"kind": "test"})
        wal.append({"kind": "test"})
        wal.reset()
        assert wal.position() == len(WAL_MAGIC)
        record = wal.append({"kind": "test"})
        assert record.seq == 3  # keeps counting across truncation
        wal.close()

    def test_fsync_off_still_scannable(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path), fsync=False)
        wal.append({"kind": "test", "i": 7})
        wal.close()
        scan = scan_wal(wal_path(tmp_path))
        assert scan.records[0].payload["i"] == 7


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------


class TestCodec:
    def test_dict_key_order_survives_sorted_json(self, tmp_path):
        import json
        original = {"zebra": 1, "alpha": 2, 3: "int key"}
        encoded = json.loads(json.dumps(codec.encode(original),
                                        sort_keys=True))
        decoded = codec.decode(encoded)
        assert decoded == original
        assert list(decoded) == ["zebra", "alpha", 3]

    def test_hlc_roundtrip(self):
        ts = HlcTimestamp(1234, 7)
        assert codec.decode(codec.encode(ts)) == ts

    def test_collections_roundtrip(self):
        value = {"t": (1, 2), "s": {3, 4}, "f": frozenset({5}),
                 "x": 1.5, "n": None, "b": True}
        decoded = codec.decode(codec.encode(value))
        assert decoded == value
        assert isinstance(decoded["t"], tuple)
        assert isinstance(decoded["s"], set)
        assert isinstance(decoded["f"], frozenset)

    @pytest.mark.parametrize("triples", [
        [],
        [("+", "a", ()), ("-", "b", ())],
        [("+", "a", (None, float("nan"), [1, [2, None]], "x", 1.0, 1))],
        [("+", "a", (1, "x")), ("+", "b", (2, "y"))],
        [("-", "a", (1, "x")), ("+", "a", (1, "z")), ("-", "b", (2, None))],
    ], ids=["empty", "zero-width", "null-nan-nested", "insert-only", "mixed"])
    def test_changeset_roundtrips_columnar(self, triples):
        import json
        from repro.ivm.changes import Action, Change, ChangeSet

        changes = ChangeSet(
            Change(Action.INSERT if sign == "+" else Action.DELETE, row_id,
                   row) for sign, row_id, row in triples)
        encoded = json.loads(json.dumps(codec.encode(changes)))
        width = len(triples[0][2]) if triples else 0
        assert len(encoded["c"]) == width  # one encoded array per column
        assert "r" not in encoded
        decoded = codec.decode(encoded)
        assert decoded.actions == list(changes.actions)
        assert decoded.row_ids == list(changes.row_ids)
        assert decoded.insert_only == changes.insert_only
        assert repr(list(decoded)) == repr(list(changes))  # NaN-proof
        for before, after in zip(changes, decoded):
            assert [type(value) for value in after.row] == [
                type(value) for value in before.row]

    def test_unknown_class_rejected(self):
        class NotRegistered:
            pass

        with pytest.raises(DurabilityError):
            codec.encode(NotRegistered())


# ---------------------------------------------------------------------------
# End-to-end recovery
# ---------------------------------------------------------------------------


def make_db(directory, **kwargs):
    db = Database(path=str(directory), **kwargs)
    db.create_warehouse("wh")
    db.execute("CREATE TABLE src (id int, val int)")
    db.execute("INSERT INTO src VALUES (1, 10), (2, 20), (3, 30)")
    return db


def reopen(db, directory, **kwargs):
    db.close()
    return Database(path=str(directory), **kwargs)


class TestRecovery:
    def test_wal_only_recovery_restores_rows_and_hlc(self, tmp_path):
        db = make_db(tmp_path / "d")
        hlc_before = db.txns.hlc.last
        db = reopen(db, tmp_path / "d")
        assert sorted(db.query("SELECT * FROM src").rows) == \
               [(1, 10), (2, 20), (3, 30)]
        assert db.txns.hlc.last == hlc_before
        status = db.durability_status()
        assert status["recovery"]["records_replayed"] > 0
        assert db.warehouses.exists("wh")
        db.close()

    def test_dt_refreshes_incrementally_after_recovery(self, tmp_path):
        db = make_db(tmp_path / "d")
        db.create_dynamic_table(
            "totals", "SELECT val, count(*) n FROM src GROUP BY val",
            "1 minute", "wh")
        db = reopen(db, tmp_path / "d")
        assert sorted(db.query("SELECT * FROM totals").rows) == \
               [(10, 1), (20, 1), (30, 1)]
        db.execute("INSERT INTO src VALUES (4, 10)")
        record = db.refresh_dynamic_table("totals")
        assert record.action == RefreshAction.INCREMENTAL
        assert db.check_dvs("totals")
        db.close()

    def test_checkpoint_skips_replay(self, tmp_path):
        db = make_db(tmp_path / "d")
        db.checkpoint()
        db = reopen(db, tmp_path / "d")
        recovery = db.durability_status()["recovery"]
        assert recovery["checkpoint_seq"] == 1
        assert recovery["records_replayed"] == 0
        assert sorted(db.query("SELECT * FROM src").rows) == \
               [(1, 10), (2, 20), (3, 30)]
        db.close()

    def test_commits_after_checkpoint_replay_on_top(self, tmp_path):
        db = make_db(tmp_path / "d")
        db.checkpoint()
        db.execute("INSERT INTO src VALUES (4, 40)")
        db = reopen(db, tmp_path / "d")
        recovery = db.durability_status()["recovery"]
        assert recovery["checkpoint_seq"] == 1
        assert recovery["records_replayed"] == 1
        assert (4, 40) in db.query("SELECT * FROM src").rows
        db.close()

    def test_torn_wal_tail_is_discarded(self, tmp_path):
        db = make_db(tmp_path / "d")
        db.close()
        with open(wal_path(tmp_path / "d"), "ab") as handle:
            handle.write(b"\xff\xff\xff\xff mid-crash garbage")
        db = Database(path=str(tmp_path / "d"))
        assert db.durability_status()["recovery"]["torn_bytes"] > 0
        assert sorted(db.query("SELECT * FROM src").rows) == \
               [(1, 10), (2, 20), (3, 30)]
        db.close()

    def test_ddl_replays_drop_and_rename(self, tmp_path):
        db = make_db(tmp_path / "d")
        db.execute("CREATE TABLE doomed (id int)")
        db.execute("DROP TABLE doomed")
        db.execute("ALTER TABLE src RENAME TO source")
        db = reopen(db, tmp_path / "d")
        assert sorted(db.query("SELECT * FROM source").rows) == \
               [(1, 10), (2, 20), (3, 30)]
        with pytest.raises(Exception):
            db.query("SELECT * FROM doomed")
        db.close()

    def test_in_memory_database_has_no_durability(self):
        db = Database()
        assert db.durability_status() is None
        with pytest.raises(UserError):
            db.checkpoint()

    def test_invalid_durability_mode_rejected(self, tmp_path):
        with pytest.raises(UserError):
            Database(path=str(tmp_path / "d"), durability="eventually")

    def test_async_mode_survives_clean_close(self, tmp_path):
        db = make_db(tmp_path / "d", durability="async")
        db = reopen(db, tmp_path / "d", durability="async")
        assert sorted(db.query("SELECT * FROM src").rows) == \
               [(1, 10), (2, 20), (3, 30)]
        db.close()


# ---------------------------------------------------------------------------
# Clones across checkpoint/restore (satellite 4 bugfix sweep)
# ---------------------------------------------------------------------------


class TestClonesAcrossRestart:
    def test_checkpointed_clone_shares_partitions_after_restore(
            self, tmp_path):
        db = make_db(tmp_path / "d")
        db.execute("CREATE TABLE copy CLONE src")
        db.checkpoint()
        db = reopen(db, tmp_path / "d")
        source = db.catalog.versioned_table("src")
        clone = db.catalog.versioned_table("copy")
        # The checkpoint pools partitions by id: restore must rebuild
        # the same object graph, not duplicate the shared partitions.
        shared_ids = (clone.current_version.partition_ids
                      & source.current_version.partition_ids)
        assert shared_ids
        source_parts = {p.id: p for p in
                        source.partitions_of(source.current_version)}
        clone_parts = {p.id: p for p in
                       clone.partitions_of(clone.current_version)}
        for pid in shared_ids:
            assert source_parts[pid] is clone_parts[pid]
        db.close()

    def test_clone_replayed_from_wal_matches_source(self, tmp_path):
        db = make_db(tmp_path / "d")
        db.execute("CREATE TABLE copy CLONE src")  # WAL record, no ckpt
        db = reopen(db, tmp_path / "d")
        assert sorted(db.query("SELECT * FROM copy").rows) == \
               sorted(db.query("SELECT * FROM src").rows)
        db.close()

    def test_clone_diverges_correctly_after_restart(self, tmp_path):
        db = make_db(tmp_path / "d")
        db.execute("CREATE TABLE copy CLONE src")
        db.checkpoint()
        db = reopen(db, tmp_path / "d")
        db.execute("INSERT INTO copy VALUES (9, 90)")
        db.execute("DELETE FROM src WHERE id = 1")
        assert len(db.query("SELECT * FROM copy").rows) == 4
        assert len(db.query("SELECT * FROM src").rows) == 2
        db.close()

    def test_clone_row_id_namespace_survives_restart(self, tmp_path):
        db = make_db(tmp_path / "d")
        db.execute("CREATE TABLE copy CLONE src")
        db.checkpoint()
        db = reopen(db, tmp_path / "d")
        db.execute("INSERT INTO src VALUES (4, 40)")
        db.execute("INSERT INTO copy VALUES (5, 50)")
        src_ids = set(db.query("SELECT * FROM src").row_ids)
        copy_new_ids = set(db.query("SELECT * FROM copy").row_ids) - src_ids
        assert len(copy_new_ids) == 1
        db.close()

    def test_dynamic_table_clone_refreshes_after_restart(self, tmp_path):
        db = make_db(tmp_path / "d")
        db.create_dynamic_table(
            "totals", "SELECT val, count(*) n FROM src GROUP BY val",
            "1 minute", "wh")
        db.execute("CREATE DYNAMIC TABLE totals2 CLONE totals")
        db.checkpoint()
        db = reopen(db, tmp_path / "d")
        db.execute("INSERT INTO src VALUES (4, 10)")
        record = db.refresh_dynamic_table("totals2")
        assert record.action == RefreshAction.INCREMENTAL
        assert db.check_dvs("totals2")
        db.close()


# ---------------------------------------------------------------------------
# Schema evolution across restart (satellite 4 bugfix sweep)
# ---------------------------------------------------------------------------


class TestEvolutionAcrossRestart:
    def test_replace_before_restart_reinitializes_after(self, tmp_path):
        db = make_db(tmp_path / "d")
        db.create_dynamic_table("d1", "SELECT id FROM src",
                                "1 minute", "wh")
        db.execute("CREATE OR REPLACE TABLE src (id int, val int)")
        db.execute("INSERT INTO src VALUES (7, 70)")
        db = reopen(db, tmp_path / "d")
        record = db.refresh_dynamic_table("d1")
        assert record.action == RefreshAction.REINITIALIZE
        assert sorted(db.query("SELECT * FROM d1").rows) == [(7,)]
        assert db.check_dvs("d1")
        db.close()

    def test_epoch_survives_checkpoint(self, tmp_path):
        db = make_db(tmp_path / "d")
        db.execute("CREATE OR REPLACE TABLE src (id int)")
        epoch_before = db.catalog.epoch
        db.checkpoint()
        db = reopen(db, tmp_path / "d")
        assert db.catalog.epoch == epoch_before
        db.close()


# ---------------------------------------------------------------------------
# Aggregate accumulator coverage (RPR031 condition)
# ---------------------------------------------------------------------------


class TestAggStateCoverage:
    def agg_db(self, tmp_path):
        db = make_db(tmp_path / "d")
        db.create_dynamic_table(
            "totals", "SELECT val, sum(id) s FROM src GROUP BY val",
            "1 minute", "wh")
        db.execute("INSERT INTO src VALUES (4, 10)")
        db.refresh_dynamic_table("totals")  # populates the agg store
        return db

    def test_uncheckpointed_store_reports_rebuild(self, tmp_path):
        db = self.agg_db(tmp_path)
        dt = db.dynamic_table("totals")
        assert dt.agg_state is not None
        assert db.durability.agg_recovery_status(dt) == "rebuild"
        db.close()

    def test_checkpoint_marks_store_intact(self, tmp_path):
        db = self.agg_db(tmp_path)
        db.checkpoint()
        dt = db.dynamic_table("totals")
        assert db.durability.agg_recovery_status(dt) == "intact"
        # A data-moving refresh after the checkpoint uncovers it again.
        db.execute("INSERT INTO src VALUES (5, 20)")
        db.refresh_dynamic_table("totals")
        assert db.durability.agg_recovery_status(dt) == "rebuild"
        db.close()

    def test_restored_store_is_intact_and_correct(self, tmp_path):
        db = self.agg_db(tmp_path)
        db.checkpoint()
        db = reopen(db, tmp_path / "d")
        dt = db.dynamic_table("totals")
        assert db.durability.agg_recovery_status(dt) == "intact"
        db.execute("INSERT INTO src VALUES (6, 10)")
        record = db.refresh_dynamic_table("totals")
        assert record.action == RefreshAction.INCREMENTAL
        assert db.check_dvs("totals")
        db.close()

    def test_rebuild_after_restart_still_correct(self, tmp_path):
        db = self.agg_db(tmp_path)  # no checkpoint: replay-only recovery
        db = reopen(db, tmp_path / "d")
        dt = db.dynamic_table("totals")
        # WAL replay cannot reconstruct live accumulators — the next
        # refresh reinitializes them from the stored result, correctly.
        db.execute("INSERT INTO src VALUES (6, 10)")
        db.refresh_dynamic_table("totals")
        assert db.check_dvs("totals")
        db.close()


# ---------------------------------------------------------------------------
# Checkpoint triggers
# ---------------------------------------------------------------------------


class TestCheckpointTriggers:
    def test_wal_byte_threshold(self, tmp_path):
        db = make_db(tmp_path / "d", checkpoint_wal_bytes=64)
        assert db.maybe_checkpoint()
        assert db.durability.last_checkpoint_seq == 1
        assert not db.maybe_checkpoint()  # WAL just truncated
        db.close()

    def test_background_tick_checkpoints(self, tmp_path):
        from repro.util.timeutil import MINUTE
        db = make_db(tmp_path / "d", checkpoint_every=MINUTE)
        db.run_for(3 * MINUTE)
        assert db.durability.last_checkpoint_seq >= 1
        db.close()

    def test_old_checkpoints_are_pruned(self, tmp_path):
        db = make_db(tmp_path / "d")
        for i in range(4):
            db.execute(f"INSERT INTO src VALUES ({10 + i}, 0)")
            db.checkpoint()
        db.close()
        files = [f for f in os.listdir(tmp_path / "d")
                 if f.startswith("checkpoint-")]
        assert len(files) == 2  # KEEP_CHECKPOINTS
