"""The Dynamic Table entity.

A DT (section 3 of the paper) is "a table in the Snowflake RDBMS, and its
contents are the result of its defining query at some point in the past.
To create it, a user provides a SELECT query, a target lag duration, and a
virtual warehouse in which to execute refreshes."

This module holds the entity's state machine; the refresh algorithms live
in :mod:`repro.core.refresh` and the orchestration in
:mod:`repro.scheduler`.

State tracked per DT:

* the **data timestamp** / **frontier** (sections 3.1.1 and 5.3);
* the requested and *effective* refresh mode — requested AUTO resolves to
  INCREMENTAL when every operator in the defining query has a derivative
  rule, else FULL (section 3.3.2);
* the **dependency records** captured at creation ("When a DT is created,
  we track all of its dependencies and store them as metadata", section
  5.4) — generations and schemas that query evolution compares;
* suspension and the consecutive-failure counter (section 3.3.3: "If the
  counter exceeds a threshold, the DT is automatically suspended");
* the refresh history, from which lag metrics are measured;
* the **aggregate state store** (:mod:`repro.ivm.aggstate`) — per-group
  retractable accumulators carried across incremental refreshes, lazily
  created by the refresh engine and versioned with the refresh interval.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.frontier import Frontier
from repro.core.lag import TargetLag
from repro.engine.schema import Schema
from repro.errors import NotInitializedError, SuspendedError, UserError
from repro.ivm.differentiator import DifferentiationStats
from repro.sql import nodes as n
from repro.storage.table import VersionedTable
from repro.util.timeutil import (MINUTE, SECOND, Timestamp, format_duration,
                                 parse_duration)

#: Consecutive refresh failures before automatic suspension
#: (section 3.3.3). Snowflake uses five; so do we. Per-DT overridable
#: via ``error_threshold`` (``ALTER DYNAMIC TABLE ... SET``).
MAX_CONSECUTIVE_FAILURES = 5


@dataclass(frozen=True)
class RetryPolicy:
    """Per-DT retry behavior for *transient* refresh failures.

    Section 3.3.3 retries nothing that is a user error; environmental
    failures (lock conflicts, injected storage/WAL/worker faults) are
    retried up to ``max_retries`` times with exponential backoff. The
    backoff runs on the **simulated clock**: each retry's delay is
    modeled into the refresh record (``backoff_total``) and accounted by
    the scheduler like any other refresh cost — no wall-clock sleeping.
    """

    max_retries: int = 0
    backoff_base: Timestamp = 8 * SECOND
    backoff_factor: int = 2
    backoff_cap: Timestamp = 5 * MINUTE

    def delay(self, attempt: int) -> Timestamp:
        """Modeled delay before retry ``attempt`` (1-based)."""
        return min(self.backoff_base * self.backoff_factor ** (attempt - 1),
                   self.backoff_cap)


class RefreshMode(enum.Enum):
    """The user-requested refresh mode."""

    AUTO = "auto"
    FULL = "full"
    INCREMENTAL = "incremental"


class RefreshAction(enum.Enum):
    """What a refresh actually did (section 3.3.2)."""

    NO_DATA = "no_data"
    FULL = "full"
    INCREMENTAL = "incremental"
    REINITIALIZE = "reinitialize"
    INITIAL = "initial"
    #: The tick was skipped because an upstream DT has no data at this
    #: timestamp *due to a failure* (it failed, is failing, or is
    #: suspended) — graceful degradation: the DT keeps serving its last
    #: consistent version, and the staleness is surfaced by
    #: :func:`repro.scheduler.liveness.staleness_report` and EXPLAIN.
    SKIPPED_UPSTREAM_FAILED = "skipped_upstream_failed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value.upper()


@dataclass(frozen=True)
class DependencyRecord:
    """What the DT believed about one upstream entity at creation time;
    compared at every refresh by query evolution (section 5.4)."""

    name: str
    kind: str            # table | view | dynamic table
    entity_id: int       # catalog identity; changes on replace/recreate
    schema: Optional[Schema]  # None for views (their query is re-expanded)
    used_columns: tuple[str, ...] = ()


@dataclass
class RefreshRecord:
    """One refresh attempt (successful, failed, or skipped).

    ``data_timestamp`` is v_i in the paper's Figure 4; ``start_wall`` /
    ``end_wall`` are s_i / e_i. The scheduler fills the wall times; the
    refresh engine fills the outcome.
    """

    data_timestamp: Timestamp
    action: Optional[RefreshAction] = None
    start_wall: Timestamp = 0
    end_wall: Timestamp = 0
    rows_inserted: int = 0
    rows_deleted: int = 0
    table_rows_after: int = 0
    source_rows_scanned: int = 0
    error: Optional[str] = None
    skipped: bool = False
    #: Transient-failure retries this refresh needed (RetryPolicy), and
    #: the total modeled backoff delay they added on the simulated
    #: clock. The scheduler folds ``backoff_total`` into the refresh's
    #: modeled duration.
    retries: int = 0
    backoff_total: Timestamp = 0
    ivm_stats: Optional[DifferentiationStats] = None
    #: The frontier installed by this refresh (None for skips/failures);
    #: lets the history recorder reconstruct derivation provenance.
    frontier: Optional[Frontier] = None
    #: Parallel-execution observability (None when fully serial): the
    #: DAG-parallel scheduler's ``wave``, ``waves``, and ``workers``.
    #: Surfaced by EXPLAIN.
    parallel: Optional[dict] = None

    def reset_outcome(self) -> None:
        """Clear the per-attempt outcome fields before a retry, so a
        failed attempt's partial stats never leak into the next one.
        Retry accounting (``retries`` / ``backoff_total``) survives."""
        self.action = None
        self.rows_inserted = 0
        self.rows_deleted = 0
        self.table_rows_after = 0
        self.source_rows_scanned = 0
        self.error = None
        self.ivm_stats = None
        self.frontier = None
        self.parallel = None

    @property
    def succeeded(self) -> bool:
        return self.error is None and not self.skipped

    @property
    def rows_changed(self) -> int:
        return self.rows_inserted + self.rows_deleted

    @property
    def duration(self) -> Timestamp:
        return self.end_wall - self.start_wall


class DynamicTable:
    """A dynamic table: defining query + target lag + warehouse + state."""

    def __init__(self, name: str, query_text: str, query: n.Select,
                 target_lag: TargetLag, warehouse: str,
                 refresh_mode: RefreshMode, table: VersionedTable,
                 dependencies: dict[str, DependencyRecord],
                 incremental_supported: bool,
                 incremental_reasons: list[str] | None = None):
        self.name = name
        self.query_text = query_text
        self.query = query
        self.target_lag = target_lag
        self.warehouse = warehouse
        self.refresh_mode = refresh_mode
        self.table = table
        self.dependencies = dependencies
        self.incremental_supported = incremental_supported
        self.incremental_reasons = incremental_reasons or []
        #: The static-analysis report of the defining query, attached by
        #: ``Database.create_dynamic_table`` (None for DTs built through
        #: other paths, e.g. cloning or replication).
        self.analysis = None

        self.initialized = False
        self.suspended = False
        #: Why the DT is suspended (auto-suspension records the failure
        #: trail; manual SUSPEND leaves None).
        self.suspended_reason: Optional[str] = None
        #: True for internal fragment DTs (section 5.5.3 extension);
        #: hidden DTs are filtered from user-facing listings.
        self.hidden = False
        self.consecutive_failures = 0
        #: Transient-failure retry behavior (section 3.3.3 retries no
        #: user errors; this governs everything else). Surfaced via
        #: ``Database.create_dynamic_table`` and ``ALTER DYNAMIC TABLE
        #: ... SET RETRIES/BACKOFF``.
        self.retry_policy = RetryPolicy()
        #: Consecutive failures before auto-suspension; per-DT override
        #: of MAX_CONSECUTIVE_FAILURES (``SET ERROR_THRESHOLD``).
        self.error_threshold = MAX_CONSECUTIVE_FAILURES
        self.frontier: Optional[Frontier] = None
        self.refresh_history: list[RefreshRecord] = []
        #: Per-group aggregate accumulators carried across incremental
        #: refreshes (:class:`repro.ivm.aggstate.AggStateStore`); created
        #: lazily by the refresh engine for plans with aggregate-class
        #: nodes, None otherwise.
        self.agg_state = None

    # -- derived properties -------------------------------------------------------

    @property
    def effective_refresh_mode(self) -> RefreshMode:
        """AUTO resolves to INCREMENTAL when the defining query is fully
        differentiable, else FULL (section 3.3.2)."""
        if self.refresh_mode == RefreshMode.AUTO:
            return (RefreshMode.INCREMENTAL if self.incremental_supported
                    else RefreshMode.FULL)
        return self.refresh_mode

    @property
    def data_timestamp(self) -> Optional[Timestamp]:
        """The DT's current data timestamp (None before initialization)."""
        if self.frontier is None:
            return None
        return self.frontier.data_timestamp

    @property
    def schema(self) -> Schema:
        return self.table.schema

    def lag_at(self, now: Timestamp) -> Optional[Timestamp]:
        """Current lag: now − data timestamp (section 3.2)."""
        data_ts = self.data_timestamp
        if data_ts is None:
            return None
        return now - data_ts

    # -- state transitions --------------------------------------------------------

    def ensure_readable(self) -> None:
        """Raise unless the DT can be queried (section 3.1: querying
        before initialization is an error)."""
        if not self.initialized:
            raise NotInitializedError(
                f"dynamic table {self.name!r} has not been initialized")

    def ensure_refreshable(self) -> None:
        if self.suspended:
            reason = (f" ({self.suspended_reason})"
                      if self.suspended_reason else "")
            raise SuspendedError(
                f"dynamic table {self.name!r} is suspended{reason}")

    def suspend(self) -> None:
        self.suspended = True

    def resume(self) -> None:
        """Resume a suspended DT; the failure counter resets so it gets a
        fresh error budget (section 3.3.3: "the DT can resume from where
        it left off once the cause is addressed")."""
        self.suspended = False
        self.suspended_reason = None
        self.consecutive_failures = 0

    def record_refresh(self, record: RefreshRecord) -> None:
        """Track a completed refresh attempt and update failure state
        (section 3.3.3: "If the counter exceeds a threshold, the DT is
        automatically suspended")."""
        self.refresh_history.append(record)
        if record.skipped:
            return
        if record.error is not None:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.error_threshold:
                self.suspended = True
                self.suspended_reason = (
                    f"auto-suspended after {self.consecutive_failures} "
                    f"consecutive refresh failures; last: {record.error}")
        else:
            self.consecutive_failures = 0

    def advance_frontier(self, frontier: Frontier) -> None:
        self.frontier = frontier
        self.initialized = True

    def agg_state_store(self):
        """The DT's aggregate state store, created on first use."""
        if self.agg_state is None:
            from repro.ivm.aggstate import AggStateStore

            self.agg_state = AggStateStore()
        return self.agg_state

    # -- reporting ------------------------------------------------------------------

    def successful_refreshes(self) -> list[RefreshRecord]:
        return [record for record in self.refresh_history if record.succeeded]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DynamicTable({self.name!r}, lag={self.target_lag}, "
                f"mode={self.effective_refresh_mode.value}, "
                f"data_ts={self.data_timestamp})")


# ---------------------------------------------------------------------------
# Failure-policy options (ALTER DYNAMIC TABLE ... SET k = v, ...)
# ---------------------------------------------------------------------------

#: Settable option keys and how their raw (string/int) values parse.
_OPTION_KEYS = ("retries", "backoff", "backoff_factor", "error_threshold")


def apply_policy_options(dt: DynamicTable,
                         options: dict[str, object]) -> None:
    """Apply failure-policy options to a DT. Shared by the ALTER
    dispatch, ``Database.create_dynamic_table``, and DDL replay, so the
    three paths cannot drift. Raises :class:`UserError` on unknown keys
    or malformed values."""
    from dataclasses import replace

    for key, raw in options.items():
        if key == "retries":
            count = _int_option(key, raw, minimum=0)
            dt.retry_policy = replace(dt.retry_policy, max_retries=count)
        elif key == "backoff":
            # A bare integer (raw nanoseconds) may round-trip through the
            # DDL log as a digit string; a duration string parses.
            if isinstance(raw, str) and not raw.strip().isdigit():
                duration = parse_duration(raw)
            else:
                duration = _int_option(key, raw, minimum=1)
            dt.retry_policy = replace(dt.retry_policy,
                                      backoff_base=duration)
        elif key == "backoff_factor":
            dt.retry_policy = replace(
                dt.retry_policy,
                backoff_factor=_int_option(key, raw, minimum=1))
        elif key == "error_threshold":
            dt.error_threshold = _int_option(key, raw, minimum=1)
        else:
            raise UserError(
                f"unknown dynamic table option {key!r} "
                f"(expected one of: {', '.join(_OPTION_KEYS)})")


def policy_options(dt: DynamicTable) -> dict[str, object]:
    """The DT's current failure-policy options, in the same shape
    ``apply_policy_options`` accepts (checkpoint serialization)."""
    return {
        "retries": dt.retry_policy.max_retries,
        "backoff": dt.retry_policy.backoff_base,
        "backoff_factor": dt.retry_policy.backoff_factor,
        "error_threshold": dt.error_threshold,
    }


def encode_option_detail(options: dict[str, object]) -> str:
    """Render SET options as the DDL-log detail string (``"set
    retries=2, backoff=10 seconds"``)."""
    body = ", ".join(f"{key}={value}" for key, value in options.items())
    return f"set {body}"


def decode_option_detail(detail: str) -> Optional[dict[str, str]]:
    """Parse a DDL-log alter detail back into options; None when the
    detail is not a SET (suspend/resume/refresh)."""
    if not detail.startswith("set "):
        return None
    options: dict[str, str] = {}
    for part in detail[len("set "):].split(", "):
        key, __, value = part.partition("=")
        options[key.strip()] = value.strip()
    return options


def describe_policy(dt: DynamicTable) -> str:
    """One-line human rendering (EXPLAIN / SHOW surfaces)."""
    policy = dt.retry_policy
    return (f"retries={policy.max_retries}, "
            f"backoff={format_duration(policy.backoff_base)}"
            f"×{policy.backoff_factor}, "
            f"error_threshold={dt.error_threshold}")


def _int_option(key: str, raw: object, minimum: int) -> int:
    try:
        value = int(raw)  # type: ignore[call-overload]
    except (TypeError, ValueError):
        raise UserError(f"option {key!r} needs an integer, "
                        f"got {raw!r}") from None
    if value < minimum:
        raise UserError(f"option {key!r} must be >= {minimum}")
    return value
