"""Property-based testing of planned UPDATE / DELETE.

DML is planned (``Filter(Scan)``, plus a ``Project`` of the new row for
UPDATE) and evaluated through the executor's shared kernels inside the
statement's transaction. Delayed view semantics needs the rows a
``DELETE ... WHERE p`` removes to be exactly the rows ``SELECT ... WHERE
p`` reads, so for random predicates and SET lists — as literals and as
bind parameters, in autocommit and inside an open transaction that has
already staged inserts, updates and deletes on the target (the
read-your-writes overlay) — the affected row ids, the new rows and the
``rowcount`` must equal two independent oracles:

* the same statements on a twin database under ``force_interpreted()``
  (the reference interpreter), and
* a plain Python filter / row rewrite over ``SELECT *``.
"""

import random
from collections import namedtuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.engine.expressions import force_interpreted
from repro.errors import EvaluationError
from repro.workload.generator import (CATEGORIES, UpdateWorkload,
                                      create_workload_schema)

# facts(id, dim_id, category, amount, score)
ID, DIM_ID, CATEGORY, AMOUNT, SCORE = range(5)
FACT_ROWS = 40
PARTITION_ROWS = 8

#: One WHERE clause three ways: literal SQL, parameterized SQL + bind
#: values, and the Python predicate (SQL's "exactly TRUE" — a NULL operand
#: never selects the row).
Predicate = namedtuple("Predicate", "literal parameterized values matches")
#: One SET list three ways; ``rewrite`` maps the old row to the new row.
Assignment = namedtuple("Assignment", "literal parameterized values rewrite")


def _known(*values):
    return all(value is not None for value in values)


def _amount_gt(k):
    return Predicate(f"amount > {k}", "amount > ?", (k,),
                     lambda r: _known(r[AMOUNT]) and r[AMOUNT] > k)


def _score_le(k):
    return Predicate(f"score <= {k}", "score <= ?", (k,),
                     lambda r: _known(r[SCORE]) and r[SCORE] <= k)


def _not_score_gt(k):
    return Predicate(f"NOT (score > {k})", "NOT (score > ?)", (k,),
                     lambda r: _known(r[SCORE]) and not r[SCORE] > k)


def _category_in(pair):
    first, second = pair
    return Predicate(f"category IN ('{first}', '{second}')",
                     "category IN (?, ?)", (first, second),
                     lambda r: r[CATEGORY] in (first, second))


def _sum_lt(k):
    return Predicate(
        f"amount + score < {k}", "amount + score < ?", (k,),
        lambda r: _known(r[AMOUNT], r[SCORE]) and r[AMOUNT] + r[SCORE] < k)


def _id_range(bounds):
    low, width = bounds
    high = low + width
    # Every conjunct is ``column <op> constant``: the zone-map prunable
    # shape, so the pruned-scan path is inside the property too.
    return Predicate(f"id >= {low} AND id < {high}", "id >= ? AND id < ?",
                     (low, high), lambda r: low <= r[ID] < high)


# The lazy constructs: a guard decides which rows the raising operand
# (``1000 / score`` on a zero score) is evaluated on, so the vectorized
# compiler must evaluate it on the guarded rows only (selection vectors).
def _guarded_and(k):
    return Predicate(
        f"score <> 0 AND 1000 / score > {k}",
        "score <> 0 AND 1000 / score > ?", (k,),
        lambda r: _known(r[SCORE]) and r[SCORE] != 0
        and 1000 / r[SCORE] > k)


def _guarded_or_mixed(k):
    # A total operand (amount IS NULL) beside non-total ones.
    return Predicate(
        f"amount IS NULL OR score = 0 OR 1000 / score > {k}",
        "amount IS NULL OR score = 0 OR 1000 / score > ?", (k,),
        lambda r: r[AMOUNT] is None or (
            _known(r[SCORE]) and (r[SCORE] == 0 or 1000 / r[SCORE] > k)))


def _case_quotient(r):
    return 1000 / r[SCORE] if _known(r[SCORE]) and r[SCORE] != 0 else 0


def _case_gt(k):
    return Predicate(
        f"CASE WHEN score <> 0 THEN 1000 / score ELSE 0 END > {k}",
        "CASE WHEN score <> 0 THEN 1000 / score ELSE 0 END > ?", (k,),
        lambda r: _case_quotient(r) > k)


def _amount_not_in(k):
    # An IN list holding a column: a NULL item makes a non-match NULL.
    return Predicate(
        f"amount NOT IN ({k}, score)", "amount NOT IN (?, score)", (k,),
        lambda r: _known(r[AMOUNT], r[SCORE])
        and r[AMOUNT] not in (k, r[SCORE]))


predicates = st.one_of(
    st.integers(0, 60).map(_guarded_and),
    st.integers(0, 60).map(_guarded_or_mixed),
    st.integers(0, 60).map(_case_gt),
    st.integers(0, 60).map(_amount_not_in),
    st.just(Predicate(None, None, (), lambda r: True)),
    st.just(Predicate("amount IS NULL", "amount IS NULL", (),
                      lambda r: r[AMOUNT] is None)),
    st.integers(0, 60).map(_amount_gt),
    st.integers(0, 100).map(_score_le),
    st.integers(0, 100).map(_not_score_gt),
    st.tuples(st.sampled_from(CATEGORIES),
              st.sampled_from(CATEGORIES)).map(_category_in),
    st.integers(20, 140).map(_sum_lt),
    st.tuples(st.integers(0, FACT_ROWS + 10),
              st.integers(0, 20)).map(_id_range),
)


_INDEX = {"category": CATEGORY, "amount": AMOUNT, "score": SCORE}


def _replace(row, **columns):
    new_row = list(row)
    for name, value in columns.items():
        new_row[_INDEX[name]] = value
    return tuple(new_row)


def _bump_score(k):
    return Assignment(
        f"score = score + {k}", "score = score + ?", (k,),
        lambda r: _replace(r, score=None if r[SCORE] is None
                           else r[SCORE] + k))


def _set_amount(k):
    return Assignment(f"amount = {k}", "amount = ?", (k,),
                      lambda r: _replace(r, amount=k))


def _set_category(name):
    return Assignment(f"category = '{name}'", "category = ?", (name,),
                      lambda r: _replace(r, category=name))


def _guarded_modulo(k):
    def rewrite(r):
        if not _known(r[SCORE]) or r[SCORE] == 0:
            return _replace(r, amount=k)
        return _replace(r, amount=None if r[AMOUNT] is None
                        else r[AMOUNT] % r[SCORE])
    return Assignment(f"amount = iff(score <> 0, amount % score, {k})",
                      "amount = iff(score <> 0, amount % score, ?)", (k,),
                      rewrite)


assignments = st.one_of(
    st.integers(0, 60).map(_guarded_modulo),
    st.integers(1, 9).map(_bump_score),
    st.integers(0, 60).map(_set_amount),
    st.sampled_from(CATEGORIES).map(_set_category),
    # Every right-hand side reads the *old* row.
    st.just(Assignment("amount = score, score = amount",
                       "amount = score, score = amount", (),
                       lambda r: _replace(r, amount=r[SCORE],
                                          score=r[AMOUNT]))),
    # Assignments are cast to the column type (INT -> TEXT here).
    st.just(Assignment("category = score", "category = score", (),
                       lambda r: _replace(
                           r, category=None if r[SCORE] is None
                           else str(r[SCORE])))),
)


def _statement(assignment, predicate, use_binds):
    """``(sql, binds)`` for an UPDATE (``assignment`` given) or DELETE."""
    head = ("DELETE FROM facts" if assignment is None else
            "UPDATE facts SET " + (assignment.parameterized if use_binds
                                   else assignment.literal))
    where = predicate.parameterized if use_binds else predicate.literal
    sql = head if where is None else f"{head} WHERE {where}"
    if not use_binds:
        return sql, None
    values = (() if assignment is None else assignment.values)
    return sql, (values + predicate.values) or None


def _session(seed, in_txn):
    """A seeded multi-partition ``facts`` table (with NULL amounts/scores
    and zero scores) and a session on it — inside an open transaction that
    already staged inserts, an update and a delete on ``facts`` when
    ``in_txn``."""
    db = Database()
    create_workload_schema(db)
    db.catalog.versioned_table("facts").partition_rows = PARTITION_ROWS
    UpdateWorkload(rng=random.Random(seed)).seed(db, facts=FACT_ROWS, dims=1)
    db.execute("UPDATE facts SET amount = NULL WHERE id % 7 = 3")
    db.execute("UPDATE facts SET score = NULL WHERE id % 11 = 5")
    db.execute("UPDATE facts SET score = 0 WHERE id % 9 = 4")
    session = db.session()
    if in_txn:
        session.begin()
        session.execute(
            "INSERT INTO facts VALUES (901, 1, 'alpha', 5, 50), "
            "(902, 2, 'beta', NULL, 70), (903, 3, 'gamma', 30, NULL)")
        session.execute("UPDATE facts SET amount = amount + 1 WHERE id < 6")
        session.execute("DELETE FROM facts WHERE id = 2 OR id = 902")
    return session


def _contents(session):
    result = session.query("SELECT * FROM facts")
    return dict(zip(result.row_ids, result.rows))


def _run(session, sql, binds):
    return session.cursor().execute(sql, binds).rowcount


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 50), in_txn=st.booleans(),
       use_binds=st.booleans(), predicate=predicates,
       assignment=st.one_of(st.none(), assignments))
def test_planned_dml_matches_interpreter_and_python_oracles(
        seed, in_txn, use_binds, predicate, assignment):
    sql, binds = _statement(assignment, predicate, use_binds)

    session = _session(seed, in_txn)
    before = _contents(session)
    rowcount = _run(session, sql, binds)
    after = _contents(session)

    # Oracle 1: the reference interpreter on a twin database.
    with force_interpreted():
        twin = _session(seed, in_txn)
        assert _contents(twin) == before
        assert _run(twin, sql, binds) == rowcount
        assert _contents(twin) == after

    # Oracle 2: a plain Python filter (and row rewrite) over SELECT *.
    matched = [row_id for row_id, row in before.items()
               if predicate.matches(row)]
    expected = dict(before)
    for row_id in matched:
        if assignment is None:
            del expected[row_id]
        else:
            expected[row_id] = assignment.rewrite(before[row_id])
    assert rowcount == len(matched)
    assert after == expected

    if in_txn:
        # Provisional ids become real ones at commit; the rows must not
        # change (a deleted staged insert stays un-staged).
        session.commit()
        assert sorted(_contents(session).values(), key=repr) == \
            sorted(expected.values(), key=repr)


@pytest.mark.parametrize("in_txn", [False, True])
@pytest.mark.parametrize("sql", [
    "DELETE FROM facts WHERE 10 / score > 0",
    "UPDATE facts SET amount = 1 WHERE 10 / score > 0",
    "UPDATE facts SET amount = 10 / score",
])
def test_raising_dml_surfaces_the_oracle_error_and_stages_nothing(in_txn,
                                                                  sql):
    def attempt():
        session = _session(3, in_txn)
        session.execute("UPDATE facts SET score = 0 WHERE id = 20")
        txn = session._txn
        before = (dict(txn.scan("facts").pairs()) if in_txn
                  else _contents(session))
        with pytest.raises(EvaluationError) as excinfo:
            session.execute(sql)
        # A poisoned transaction refuses statements, so its staged state
        # is read through the transaction itself.
        after = (dict(txn.scan("facts").pairs()) if in_txn
                 else _contents(session))
        assert after == before
        return str(excinfo.value)

    produced = attempt()
    with force_interpreted():
        assert attempt() == produced == "division by zero"
