"""Reads through a transaction's read-your-writes overlay.

Inside one open transaction, :meth:`Transaction.scan`, the concatenation
of :meth:`Transaction.scan_partitions` and a filtered
:meth:`Transaction.scan_pruned` must agree with a filtered ``scan`` on
rows, ids and order, whatever mix of staged inserts, updates (including
values outside a base partition's zone maps), deletes, ``overwrite`` and
``SAVEPOINT`` / ``ROLLBACK TO`` produced the overlay. Pruning through an
overlay skips partitions by zone map, so the last check is the one that
catches an overlaid partition answering from stale bounds.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.expressions import (DEFAULT_CONTEXT, ColumnRef, Comparison,
                                      Literal)
from repro.engine.executor import extract_scan_bounds
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.scheduler.clock import SimClock
from repro.storage.catalog import Catalog
from repro.txn.manager import TransactionManager

from deltas import columns_of

SCHEMA = schema_of(("id", SqlType.INT), ("v", SqlType.INT), table="t")

#: Base values stay in [0, 40]; staged ones reach far outside, so an
#: updated row can leave its partition's zone map.
_BASE_VALUE = st.integers(0, 40)
_VALUE = st.one_of(st.none(), st.integers(-60, 160))

_OP = st.one_of(
    st.tuples(st.just("insert"), st.lists(_VALUE, min_size=1, max_size=4)),
    st.tuples(st.just("update"), st.integers(0, 10_000), _VALUE),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(st.just("overwrite"), st.lists(_VALUE, max_size=5)),
    st.tuples(st.just("savepoint")),
    st.tuples(st.just("rollback")),
)

_PREDICATES = st.tuples(st.sampled_from(["=", "<", "<=", ">", ">=", "!="]),
                        st.integers(-70, 170))


def _manager(base_values):
    clock = SimClock()
    catalog = Catalog(clock.now)
    manager = TransactionManager(catalog, clock.now)
    catalog.create_table("t", SCHEMA).partition_rows = 4
    txn = manager.begin()
    txn.insert_rows("t", columns_of(
        [(index, value) for index, value in enumerate(base_values)]))
    txn.commit()
    return manager


def _apply(txn, op, next_id):
    kind = op[0]
    if kind in ("update", "delete"):
        live = txn.scan("t")
        if not len(live):
            return next_id
        position = op[1] % len(live)
        row_id = live.row_ids[position]
        if kind == "delete":
            txn.delete_rows("t", [row_id])
        else:
            txn.update_rows("t", {row_id: (live.rows[position][0], op[2])})
    elif kind in ("insert", "overwrite"):
        rows = [(next_id + offset, value)
                for offset, value in enumerate(op[1])]
        next_id += len(rows)
        if kind == "insert":
            txn.insert_rows("t", columns_of(rows))
        else:
            txn.overwrite("t", columns_of(rows))
    elif kind == "savepoint":
        txn.savepoint("s")
    else:
        txn.rollback_to("s")
    return next_id


def _kept(relation, predicate):
    return [(row_id, row) for row_id, row in relation.pairs()
            if predicate.eval(row, DEFAULT_CONTEXT) is True]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.lists(_BASE_VALUE, min_size=1, max_size=14),
       ops=st.lists(_OP, max_size=10),
       predicates=st.lists(_PREDICATES, min_size=1, max_size=3))
def test_overlay_reads_agree(base, ops, predicates):
    manager = _manager(base)
    txn = manager.begin()
    next_id = len(base)
    saved = False
    for op in ops:
        if op[0] == "rollback" and not saved:
            continue
        saved = saved or op[0] == "savepoint"
        next_id = _apply(txn, op, next_id)

    full = txn.scan("t")
    streamed = list(txn.scan_partitions("t"))
    assert [row_id for part in streamed for row_id in part.row_ids] \
        == full.row_ids
    assert [row for part in streamed for row in zip(*part.columns)] \
        == full.rows

    # Besides the drawn predicates, probe every value the overlay holds:
    # an updated value outside its base partition's zone map is exactly
    # what a stale-bounds prune would drop.
    held = {row[1] for row in full.rows if row[1] is not None}
    predicates += [(op, value) for value in sorted(held)
                   for op in ("=", "<=", ">=")]
    column = ColumnRef(1, SqlType.INT, "v")
    for op, value in predicates:
        predicate = Comparison(op, column, Literal(value, SqlType.INT))
        bounds = extract_scan_bounds(predicate)
        assert bounds
        pruned = txn.scan_pruned("t", bounds)
        expected = _kept(full, predicate)
        assert _kept(pruned, predicate) == expected
        # Never drops a row the predicate keeps.
        assert {row_id for row_id, __ in expected} <= set(pruned.row_ids)

    # What the transaction read is what its commit installs.
    staged_rows = sorted(full.rows, key=repr)
    txn.commit()
    assert sorted(manager.reader().scan("t").rows, key=repr) == staged_rows
