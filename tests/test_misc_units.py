"""Unit tests for the small supporting modules: errors, relations, the
simulation clock, and DT state machinery."""

import pytest

from repro import errors
from repro.core.dynamic_table import (MAX_CONSECUTIVE_FAILURES,
                                      RefreshAction, RefreshRecord)
from repro.engine.relation import Relation
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.scheduler.clock import SimClock
from repro.util.timeutil import MINUTE, SECOND


class TestErrorHierarchy:
    def test_user_errors_are_repro_errors(self):
        assert issubclass(errors.UserError, errors.ReproError)
        assert issubclass(errors.ParseError, errors.SqlError)
        assert issubclass(errors.EvaluationError, errors.UserError)
        assert issubclass(errors.SuspendedError, errors.DynamicTableError)

    def test_internal_errors_separate_from_user_errors(self):
        assert issubclass(errors.ChangeIntegrityError, errors.InternalError)
        assert not issubclass(errors.InternalError, errors.UserError)

    def test_dropped_is_not_found(self):
        assert issubclass(errors.EntityDropped, errors.EntityNotFound)

    def test_version_not_found_is_transactional(self):
        assert issubclass(errors.VersionNotFound, errors.TransactionError)

    def test_parse_error_location(self):
        error = errors.ParseError("bad token", line=3, column=7)
        assert "line 3" in str(error)
        assert error.column == 7


class TestRelation:
    SCHEMA = schema_of(("a", SqlType.INT))

    def test_positional_fallback_ids(self):
        relation = Relation(self.SCHEMA, [(1,), (2,)])
        assert relation.row_ids == ["pos:0", "pos:1"]

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError):
            Relation(self.SCHEMA, [(1,), (2,)], ["only-one"])

    def test_pairs_roundtrip(self):
        relation = Relation(self.SCHEMA, [(1,), (2,)], ["x", "y"])
        assert list(relation.pairs()) == [("x", (1,)), ("y", (2,))]
        assert len(relation) == 2
        assert list(relation) == [(1,), (2,)]


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        assert clock.now() == 0
        clock.advance(5 * SECOND)
        assert clock.now() == 5 * SECOND

    def test_advance_to(self):
        clock = SimClock(start=MINUTE)
        clock.advance_to(2 * MINUTE)
        assert clock.now() == 2 * MINUTE

    def test_backwards_rejected(self):
        clock = SimClock(start=MINUTE)
        with pytest.raises(errors.InternalError):
            clock.advance_to(0)
        with pytest.raises(errors.InternalError):
            clock.advance(-1)


class TestRefreshRecord:
    def test_succeeded_excludes_errors_and_skips(self):
        good = RefreshRecord(data_timestamp=0, action=RefreshAction.FULL)
        failed = RefreshRecord(data_timestamp=0)
        failed.error = "boom"
        skipped = RefreshRecord(data_timestamp=0, skipped=True)
        assert good.succeeded
        assert not failed.succeeded
        assert not skipped.succeeded

    def test_rows_changed_and_duration(self):
        record = RefreshRecord(data_timestamp=0)
        record.rows_inserted = 3
        record.rows_deleted = 2
        record.start_wall = 10
        record.end_wall = 25
        assert record.rows_changed == 5
        assert record.duration == 15


class TestSuspensionStateMachine:
    def make_dt(self):
        from repro import Database

        db = Database()
        db.create_warehouse("wh")
        db.execute("CREATE TABLE t (a int)")
        return db.create_dynamic_table("d", "SELECT a FROM t",
                                       "1 minute", "wh")

    def test_failures_accumulate_then_suspend(self):
        dt = self.make_dt()
        for __ in range(MAX_CONSECUTIVE_FAILURES):
            failed = RefreshRecord(data_timestamp=0)
            failed.error = "x"
            dt.record_refresh(failed)
        assert dt.suspended

    def test_skips_do_not_count_as_failures(self):
        dt = self.make_dt()
        for __ in range(MAX_CONSECUTIVE_FAILURES + 2):
            dt.record_refresh(RefreshRecord(data_timestamp=0, skipped=True))
        assert not dt.suspended

    def test_success_resets(self):
        dt = self.make_dt()
        failed = RefreshRecord(data_timestamp=0)
        failed.error = "x"
        dt.record_refresh(failed)
        ok = RefreshRecord(data_timestamp=1, action=RefreshAction.NO_DATA)
        dt.record_refresh(ok)
        assert dt.consecutive_failures == 0

    def test_lag_at(self):
        dt = self.make_dt()
        data_ts = dt.data_timestamp
        assert dt.lag_at(data_ts + MINUTE) == MINUTE
