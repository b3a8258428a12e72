"""Analyzer configuration: the manual knowledge the engine's source
cannot express in annotations alone.

Everything here is data, not code — the analyses read it through
:class:`AnalyzerConfig`, so the fixture trees under
``tools/analyzer_fixtures/`` run the very same analysis code with their
own small configs (see ``driver.FIXTURES``). :data:`REPRO_CONFIG` is the
configuration for the real tree, ``src/repro``.

The binding table and seam table deserve a word each:

* ``attr_bindings`` types the attributes the lightweight inference
  cannot see through — chiefly the ``durability`` hooks, which are
  assigned ``None`` at construction and attached later by ``Database``;
* ``method_seams`` resolves the polymorphic call sites that would
  otherwise dangle: the executor's ``resolver.scan(...)`` goes to every
  SnapshotResolver implementation, and the aggregate fold's
  ``acc.insert(...)``-style calls go to every ``Accumulator`` subclass
  (spelled ``subclasses-of:Accumulator`` so new accumulators are picked
  up automatically).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class AnalyzerConfig:
    """All tree-specific knowledge of one analyzer run."""

    #: "Class.attr" -> bare class name of the attribute's value, for
    #: attributes whose assignment the inference cannot type.
    attr_bindings: dict[str, str] = field(default_factory=dict)

    #: method name -> class names implementing it, for polymorphic call
    #: sites; "subclasses-of:X" expands to every transitive subclass.
    method_seams: dict[str, tuple[str, ...]] = field(default_factory=dict)

    #: Fallback: a terminal attribute with this name is this lock, even
    #: when the receiver chain cannot be typed.
    global_lock_attrs: dict[str, str] = field(default_factory=dict)

    #: ``<obj>.<method>(...)`` calls that acquire a table lock when the
    #: receiver's class is in ``table_lock_classes``. All table locks
    #: collapse into the single abstract id ``table_lock_id`` — the
    #: per-function sorted-acquisition discipline within that family is
    #: the per-module linter's ``lock-order`` rule, so self-edges on the
    #: abstract id are not cycles.
    table_lock_methods: frozenset = frozenset()
    table_lock_classes: frozenset = frozenset()
    table_lock_id: str = "LockManager.<table>"

    #: Classes whose ``.rows`` attribute is a full materialization.
    materialize_classes: frozenset = frozenset()

    #: The commit-critical-section locks: a blocking effect reachable
    #: while one of these is held is ENG102.
    commit_locks: frozenset = frozenset()

    #: rel-path prefixes whose direct wall-clock reads are the clock
    #: abstraction itself (exempt, mirroring the linter's exemption).
    clock_exempt_paths: tuple = ()

    #: rel-path prefixes defining the scheduler scope: wall-clock
    #: reachable from any function defined here is ENG103.
    scheduler_paths: tuple = ()

    #: Function qualnames rooting the streaming hot path: row
    #: materialization reachable from these is ENG105.
    hot_path_roots: tuple = ()

    #: thread name -> entry-point function qualnames (ENG104 roots).
    entry_points: dict[str, tuple[str, ...]] = field(default_factory=dict)

    #: Classes whose instances are confined to one thread at a time by
    #: construction (per-transaction, per-session, per-statement
    #: objects), so their unguarded writes are not races.
    thread_confined: frozenset = frozenset()

    #: Methods that run before (or after) an object is shared:
    #: construction and lifecycle edges, exempt from ENG104.
    init_methods: frozenset = frozenset({
        "__init__", "__post_init__", "open", "close", "__enter__",
        "__exit__",
    })

    #: "Class.attr" writes exempt from ENG104 with a standing
    #: justification (documented at the declaration site).
    race_allow: frozenset = frozenset()


#: The configuration for the real tree (src/repro).
REPRO_CONFIG = AnalyzerConfig(
    attr_bindings={
        # Durability hooks are assigned None at construction and
        # attached by Database after recovery.
        "TransactionManager.durability": "DurabilityManager",
        "Catalog.durability": "DurabilityManager",
        "Database.durability": "DurabilityManager",
        # The scheduler's clock is shared with the database.
        "Scheduler.clock": "SimClock",
    },
    method_seams={
        # resolver.scan(...) in the executor: every snapshot resolver.
        "scan": ("Transaction", "VersionReader", "DictResolver"),
        "scan_pruned": ("Transaction", "VersionReader"),
        "scan_partitions": ("Transaction", "VersionReader"),
        # The aggregate fold's accumulator protocol.
        "insert": ("subclasses-of:Accumulator",),
        "retract": ("subclasses-of:Accumulator",),
        "finalize": ("subclasses-of:Accumulator",),
        "insert_arrays": ("subclasses-of:Accumulator",),
        "retract_arrays": ("subclasses-of:Accumulator",),
    },
    global_lock_attrs={
        "commit_mutex": "TransactionManager.commit_mutex",
    },
    table_lock_methods=frozenset({"acquire"}),
    table_lock_classes=frozenset({"LockManager"}),
    table_lock_id="LockManager.<table>",
    materialize_classes=frozenset({"Relation", "Partition"}),
    commit_locks=frozenset({"TransactionManager.commit_mutex"}),
    clock_exempt_paths=("scheduler/clock.py",),
    scheduler_paths=("scheduler/",),
    hot_path_roots=(
        "txn.manager.Transaction.scan_partitions",
        "txn.manager.VersionReader.scan_partitions",
    ),
    entry_points={
        # Pool workers of the server front end (each statement runs on
        # one; the public entry methods approximate the job closures,
        # whose ``work()`` indirection the call graph cannot follow).
        "server-worker": (
            "server.server.Server.execute",
            "server.server.Server.submit_transaction",
            "server.server.Server._transaction_attempts",
            "server.server.Connection.execute",
            "server.server.Connection.executemany",
            "server.server.Connection._submit",
        ),
        # The background checkpoint triggers: the simulated-time tick
        # and the WAL-size threshold check after server commits.
        "checkpointer": (
            "api.database.Database._schedule_checkpoint_tick.tick",
            "durability.manager.DurabilityManager.maybe_checkpoint",
        ),
        # The refresh control loop.
        "scheduler": (
            "scheduler.scheduler.Scheduler.run_until",
        ),
        # DAG-coordinator pool workers: each runs one whole refresh
        # (ParallelRefreshCoordinator.refresh_wave submits engine.refresh
        # closures whose pool indirection the call graph cannot follow).
        "refresh-worker": (
            "core.refresh.RefreshEngine.refresh",
        ),
    },
    thread_confined=frozenset({
        # One transaction / session / statement / cursor is used by one
        # thread at a time (the connection serialization lock enforces
        # it for server sessions).
        "Transaction", "Session", "Connection", "Cursor",
        "PreparedStatement", "QueryResult", "VersionReader",
        "_OverlayPartition", "_StagedPartition", "StagedWrite",
        # The discrete-event scheduler runs on the driving thread; its
        # callbacks (including the checkpoint tick) and all tick
        # bookkeeping — even in DAG-parallel mode, where only
        # engine.refresh runs on pool workers — stay on that thread. The
        # simulated clock is advanced only by that driving thread; pool
        # workers may read it, but reads are not writes and wall-time
        # tests pin the clock. LivenessMonitor is NOT confined anymore:
        # coordinator workers heartbeat into it concurrently, so it
        # carries its own mutex and the analyzer checks it like any
        # shared object.
        "Scheduler", "SchedulerReport", "SimClock",
        # Exception objects are constructed, annotated (position info),
        # and consumed on the raising thread.
        "SqlError",
        # Refresh state is serialized per-DT by the DT's table lock.
        # A RefreshRecord is filled (and, on retry, reset) by the one
        # worker executing that refresh before it is published via
        # record_refresh.
        "DynamicTable", "RefreshRecord", "AggStateStore",
        "AggregateNodeState", "DistinctNodeState",
        # A fold's groups and their accumulators belong to one node state
        # or one evaluation.
        "Group", "CountStarAccumulator", "CountAccumulator",
        "CountIfAccumulator", "SumAccumulator", "AvgAccumulator",
        "ExtremeAccumulator", "DistinctAccumulator",
        "CollectingAccumulator",
    }),
    race_allow=frozenset(),
)
