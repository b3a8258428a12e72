"""Experiment fragmentation: hidden intermediate DTs (section 5.5.3).

The paper's stated plan: "We intend to automatically split queries into
fragments, with hidden, internal DTs containing the intermediate state."
Our extension implements the UNION ALL case; this ablation measures the
benefit on a mixed query —

    SELECT ...big incremental branch...      -- differentiable
    UNION ALL SELECT id, row_number() OVER (ORDER BY id) FROM tiny
                                             -- unpartitioned window: FULL only

Without fragmentation the unpartitioned-window branch forces the *entire*
query into FULL mode: every refresh rescans the big table. With
fragmentation, the big branch refreshes incrementally (cost ∝ delta), and
the window branch — whose source did not even change — takes the free
NO_DATA path thanks to its own per-fragment frontier. We report rows
scanned per refresh and simulated refresh durations from the cost model.
(Scalar aggregates refresh incrementally, so a ``count(*)`` branch no
longer makes the unfragmented query FULL; an unpartitioned window still
does — section 3.3.2 scopes incremental windows to partitioned ones.)
"""

from repro import Database
from repro.core.dynamic_table import RefreshAction
from repro.scheduler.cost import CostModel
from repro.util.timeutil import MINUTE, SECOND

from reporting import emit, table

BIG_ROWS = 60_000
MIXED_SQL = ("SELECT id, val FROM big WHERE val >= 0 "
             "UNION ALL SELECT id, row_number() OVER (ORDER BY id) "
             "FROM tiny")


def _build():
    db = Database()
    db.create_warehouse("wh")
    db.execute("CREATE TABLE big (id int, val int)")
    db.execute("CREATE TABLE tiny (id int)")
    # Bulk-load through the transaction API (a 60k-value SQL literal would
    # spend the benchmark's time in the lexer).
    txn = db.txns.begin()
    ids = range(BIG_ROWS)
    txn.insert_rows("big", [list(ids), [i % 100 for i in ids]])
    txn.commit()
    db.execute("INSERT INTO tiny VALUES (1), (2)")
    db.create_dynamic_table("plain", MIXED_SQL, "1 minute", "wh")
    db.create_dynamic_table("frag", MIXED_SQL, "1 minute", "wh",
                            auto_fragment=True)
    return db


def _refresh_once(db):
    """One small insert, then refresh both variants; returns the records."""
    db.execute("INSERT INTO big VALUES (999999, 1)")
    db.refresh_dynamic_table("plain")
    db.refresh_dynamic_table("frag")
    plain = db.dynamic_table("plain").refresh_history[-1]
    fragments = [db.dynamic_table(f"_frag$frag{i}").refresh_history[-1]
                 for i in range(2)]
    main = db.dynamic_table("frag").refresh_history[-1]
    return plain, fragments, main


def test_fragmentation_ablation(benchmark):
    db = _build()
    plain, fragments, main = benchmark(lambda: _refresh_once(db))

    cost = CostModel()
    plain_rows = plain.source_rows_scanned
    frag_rows = (sum(f.source_rows_scanned for f in fragments)
                 + main.source_rows_scanned)
    plain_duration = cost.duration_of(plain)
    frag_duration = (sum(cost.duration_of(f) for f in fragments)
                     + cost.duration_of(main))

    assert plain.action == RefreshAction.FULL            # forced FULL
    assert fragments[0].action == RefreshAction.INCREMENTAL
    # The window fragment reads only `tiny`, which did not
    # change — so it takes the free NO_DATA path, a benefit the
    # unfragmented query can never get (its single frontier always moved).
    assert fragments[1].action == RefreshAction.NO_DATA
    assert frag_rows < plain_rows / 10                   # scan savings
    assert frag_duration < plain_duration                # duration win
    assert db.check_dvs("plain") and db.check_dvs("frag")

    emit("fragmentation — hidden intermediate DTs (section 5.5.3 "
         f"extension; big table = {BIG_ROWS} rows, 1-row delta)", [
             *table(["variant", "refresh actions", "source rows scanned",
                     "modeled duration"], [
                 ["unfragmented", str(plain.action), plain_rows,
                  f"{plain_duration / SECOND:.1f} s"],
                 ["fragmented",
                  f"{fragments[0].action}+{fragments[1].action}"
                  f"+{main.action}", frag_rows,
                  f"{frag_duration / SECOND:.1f} s"],
             ]),
             "",
             "paper (5.5.3): intermediate state lets each fragment choose "
             "its own refresh mode; one bad branch no longer forces the "
             "whole query to FULL.",
             "trade-off: fragmentation pays one fixed refresh cost per "
             "fragment, so it wins only when the avoided recompute "
             "exceeds the extra fixed costs (it loses on small tables).",
         ])
