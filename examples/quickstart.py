"""Quickstart: your first dynamic table, through the layered API.

Opens a session, creates a base table, defines a dynamic table over it
with a 1-minute target lag (the session's default warehouse fills in the
WAREHOUSE clause), loads rows through a prepared statement, streams a
result page through a cursor, lets the scheduler refresh as data arrives,
and checks the delayed-view-semantics guarantee — the whole paper in a
screenful.

Run:  python examples/quickstart.py
"""

from repro import Database
from repro.util.timeutil import MINUTE, SECOND, format_duration, minutes


def main() -> None:
    db = Database()
    db.create_warehouse("quickstart_wh")

    # A session carries per-connection state: its default warehouse is
    # used by CREATE DYNAMIC TABLE statements that omit WAREHOUSE.
    session = db.session()
    session.use_warehouse("quickstart_wh")

    session.execute("CREATE TABLE orders (id int, customer text, amount int)")

    # Prepared statements parse and plan once; executemany loads every
    # bind set in a single transaction.
    loader = session.prepare("INSERT INTO orders VALUES (?, ?, ?)")
    loader.executemany([(1, "ada", 120), (2, "grace", 80), (3, "ada", 45)])

    # The paper's pitch: stream processing at the cost of writing a query.
    session.execute("""
        CREATE DYNAMIC TABLE customer_totals
        TARGET_LAG = '1 minute'
        AS SELECT customer, count(*) orders, sum(amount) total
           FROM orders
           GROUP BY customer
    """)
    print("initialized:",
          sorted(session.query("SELECT * FROM customer_totals").rows))

    # Point lookups re-execute the same plan with new binds — zero parse
    # or optimize work after the first call.
    lookup = session.prepare(
        "SELECT total FROM customer_totals WHERE customer = :who")
    print("ada's total:", lookup.query({"who": "ada"}).rows[0][0])

    # New data arrives over (simulated) time; the scheduler refreshes the
    # DT incrementally to keep it within its target lag.
    db.at(2 * MINUTE, lambda: session.execute(
        "INSERT INTO orders VALUES (4, 'grace', 200)"))
    db.at(4 * MINUTE, lambda: session.execute(
        "DELETE FROM orders WHERE id = 3"))
    report = db.run_for(minutes(6))

    print("after 6 simulated minutes:",
          sorted(session.query("SELECT * FROM customer_totals").rows))
    print(f"refresh actions: {report.actions}")

    # Cursors stream large scans lazily, one micro-partition per pull.
    cursor = session.cursor()
    cursor.execute("SELECT id, customer, amount FROM orders WHERE amount >= ?",
                   (100,))
    print("big orders:", cursor.fetchmany(10))

    # -- transactions --------------------------------------------------------
    # Statements auto-commit by default. An explicit transaction stages
    # multiple statements atomically: reads inside it see its own writes
    # (read-your-writes), other sessions see nothing until COMMIT, and
    # ROLLBACK leaves no trace. SQL text works the same way:
    #   session.execute("BEGIN"); ...; session.execute("COMMIT")
    other = db.session()
    with session.transaction():
        session.execute("INSERT INTO orders VALUES (5, 'lin', 70)")
        session.execute("UPDATE orders SET amount = 75 WHERE id = 5")
        mine = session.query("SELECT amount FROM orders WHERE id = 5").rows
        theirs = other.query("SELECT count(*) c FROM orders "
                             "WHERE id = 5").rows
        print(f"inside txn: I see amount={mine[0][0]}, "
              f"others see {theirs[0][0]} rows")
    print("after commit:",
          other.query("SELECT amount FROM orders WHERE id = 5").rows)

    # SAVEPOINT checkpoints the staged writes; ROLLBACK TO restores them.
    session.execute("BEGIN")
    session.execute("SAVEPOINT before_cleanup")
    session.execute("DELETE FROM orders")
    session.execute("ROLLBACK TO before_cleanup")   # phew
    session.execute("COMMIT")
    print("orders survive:",
          session.query("SELECT count(*) c FROM orders").rows[0][0])

    # Concurrent sessions: a thread-pool server retries transactions that
    # lose snapshot isolation's first-committer-wins race.
    with db.serve(workers=4) as server:
        def credit(amount):
            def work(s):
                (total,) = s.query("SELECT amount FROM orders "
                                   "WHERE id = 5").rows[0]
                s.execute("UPDATE orders SET amount = ? WHERE id = 5",
                          (total + amount,))
            return work

        futures = [server.submit_transaction(credit(1)) for __ in range(20)]
        for future in futures:
            future.result()
        # How many attempts conflicted and retried depends on thread
        # timing; the outcome does not.
        print("after 20 concurrent credits:",
              server.query("SELECT amount FROM orders WHERE id = 5").rows,
              f"{server.stats.snapshot()['commits']} commits")

    # Delayed view semantics, the paper's core guarantee: the DT equals
    # its defining query evaluated at its data timestamp.
    dt = db.dynamic_table("customer_totals")
    assert db.check_dvs("customer_totals")
    lag = dt.lag_at(db.now)
    print(f"data timestamp: t={dt.data_timestamp / SECOND:.0f}s; "
          f"current lag: {format_duration(lag)} "
          f"(target {dt.target_lag})")
    print("DVS check: contents == defining query at the data timestamp ✓")


if __name__ == "__main__":
    main()
