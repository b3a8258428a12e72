"""Property-based testing of query differentiation.

The central invariant (the basis of the paper's production validations and
its randomized workload test, section 6.1): for ANY query plan and ANY
source mutation, applying Δ_I Q to Q(I₀) yields exactly Q(I₁) — same rows,
same row ids — and the change set satisfies the ($ROW_ID, $ACTION)
invariants.

Hypothesis drives random tables and random mutation scripts through a
fixed battery of plans covering every derivative rule, for both outer-join
strategies.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.executor import evaluate
from repro.engine.expressions import force_interpreted
from repro.engine.relation import DictResolver, Relation
from repro.engine.schema import schema_of
from repro.engine.types import SqlType
from repro.ivm.aggstate import AggStateStore, force_stateless
from repro.ivm.changes import ChangeSet
from repro.ivm.differentiator import DictDeltaSource, differentiate
from repro.plan.builder import DictSchemaProvider, build_plan
from repro.sql.parser import parse_query

from deltas import changeset, deletes, inserts

ITEMS = schema_of(("id", SqlType.INT), ("grp", SqlType.TEXT),
                  ("val", SqlType.INT), table="items")
LOOKUP = schema_of(("key", SqlType.TEXT), ("label", SqlType.TEXT),
                   table="lookup")
PROVIDER = DictSchemaProvider({"items": ITEMS, "lookup": LOOKUP})

QUERIES = [
    "SELECT id, val FROM items WHERE val > 5",
    "SELECT id, grp, val + 1 v FROM items",
    "SELECT i.id, l.label FROM items i JOIN lookup l ON i.grp = l.key",
    "SELECT i.id, i.val, l.label FROM items i LEFT JOIN lookup l "
    "ON i.grp = l.key",
    "SELECT i.id, l.label FROM items i FULL JOIN lookup l ON i.grp = l.key",
    "SELECT grp, count(*) n, sum(val) s, min(val) lo, max(val) hi "
    "FROM items GROUP BY grp",
    "SELECT grp, count_if(val > 5) big FROM items GROUP BY grp",
    "SELECT DISTINCT grp FROM items",
    "SELECT id FROM items WHERE val > 3 UNION ALL SELECT val FROM items",
    "SELECT id, grp, row_number() over (partition by grp order by val, id)"
    " rn FROM items",
    "SELECT id, grp, sum(val) over (partition by grp order by id) run"
    " FROM items",
    "SELECT l.label, count(*) n FROM items i JOIN lookup l "
    "ON i.grp = l.key GROUP BY l.label",
    # The lazy constructs (selection-vector evaluation): ``val`` is 0 on
    # some rows, so every guard below decides where ``60 / val`` may run.
    "SELECT id, CASE WHEN val <> 0 THEN 60 / val ELSE 0 END q, "
    "iff(val = 0, -1, 60 % val) r FROM items "
    "WHERE val = 0 OR id > 28 OR 60 / val > 5",
    "SELECT id, val IN (0, id) m, grp NOT IN ('a', NULL) n FROM items "
    "WHERE id >= 0 AND val <> 0 AND 60 / val > 5",
    "SELECT i.id, l.label FROM items i LEFT JOIN lookup l "
    "ON i.grp = l.key AND (i.val = 0 OR 60 / i.val > 5)",
    "SELECT i.id, l.key FROM items i JOIN lookup l "
    "ON i.val <> 0 AND 60 / i.val > 5 AND i.grp <= l.key",
    "SELECT grp, sum(CASE WHEN val <> 0 THEN 60 % val ELSE 0 END) s, "
    "count_if(val <> 0 AND 60 / val > 5) c FROM items GROUP BY grp",
    "SELECT id, grp, sum(iff(val <> 0, 60 % val, 0)) over (partition by grp "
    "order by CASE WHEN val <> 0 THEN 60 / val ELSE 0 END, id) w FROM items",
]

PLANS = [build_plan(parse_query(sql), PROVIDER) for sql in QUERIES]

GROUPS = ("a", "b", "c")
KEYS = GROUPS + ("d",)

items_rows = st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(GROUPS),
              st.integers(0, 12)),
    max_size=10)
lookup_rows = st.lists(
    st.tuples(st.sampled_from(KEYS), st.sampled_from(("x", "y"))),
    max_size=4, unique_by=lambda row: row[0])
# A mutation script: per existing row index, an op; plus rows to append.
mutations = st.tuples(
    st.lists(st.sampled_from(["keep", "delete", "update"]), max_size=10),
    items_rows)


def build_tables(rows, prefix, items_schema=ITEMS):
    return Relation(items_schema if prefix == "i" else LOOKUP,
                    list(rows), [f"{prefix}{n}" for n in range(len(rows))])


def mutate(relation, ops, additions, prefix):
    """Apply a mutation script, returning (new relation, delta)."""
    delta = []
    pairs = []
    for index, (row_id, row) in enumerate(relation.pairs()):
        op = ops[index] if index < len(ops) else "keep"
        if op == "delete":
            delta.append(("-", row_id, row))
        elif op == "update":
            new_row = row[:-1] + (row[-1] + 100,)
            delta.append(("-", row_id, row))
            delta.append(("+", row_id, new_row))
            pairs.append((row_id, new_row))
        else:
            pairs.append((row_id, row))
    for offset, row in enumerate(additions):
        row_id = f"{prefix}new{offset}"
        delta.append(("+", row_id, row))
        pairs.append((row_id, row))
    return (Relation(relation.schema, [row for __, row in pairs],
                     [row_id for row_id, __ in pairs]), changeset(*delta))


def columnar(relations):
    """Column-major copies of ``relations`` (the layout storage scans
    produce); the originals stay row-major."""
    return {name: Relation.from_columns(
                relation.schema,
                [[row[index] for row in relation.rows]
                 for index in range(len(relation.schema))],
                list(relation.row_ids))
            for name, relation in relations.items()}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(items=items_rows, lookups=lookup_rows, item_mutation=mutations,
       lookup_ops=st.lists(st.sampled_from(["keep", "delete"]), max_size=4),
       strategy=st.sampled_from(["direct", "rewrite"]))
def test_delta_reproduces_full_recompute(items, lookups, item_mutation,
                                         lookup_ops, strategy):
    items_old = build_tables(items, "i")
    lookup_old = build_tables(lookups, "l")
    item_ops, additions = item_mutation
    items_new, items_delta = mutate(items_old, item_ops, additions, "i")
    lookup_new, lookup_delta = mutate(lookup_old, lookup_ops, [], "l")

    old_rels = {"items": items_old, "lookup": lookup_old}
    new_rels = {"items": items_new, "lookup": lookup_new}
    source = DictDeltaSource(old_rels, new_rels,
                             {"items": items_delta, "lookup": lookup_delta})

    for plan in PLANS:
        old_out = evaluate(plan, DictResolver(old_rels))
        new_out = evaluate(plan, DictResolver(new_rels))
        changes, __ = differentiate(plan, source,
                                    outer_join_strategy=strategy)
        changes.validate(dict(old_out.pairs()))

        state = dict(old_out.pairs())
        for change in deletes(changes):
            assert state.pop(change.row_id) == change.row
        for change in inserts(changes):
            assert change.row_id not in state
            state[change.row_id] = change.row
        assert state == dict(new_out.pairs())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(items=items_rows, lookups=lookup_rows, item_mutation=mutations,
       lookup_ops=st.lists(st.sampled_from(["keep", "delete"]), max_size=4),
       strategy=st.sampled_from(["direct", "rewrite"]))
def test_three_way_evaluation_equivalence(items, lookups, item_mutation,
                                          lookup_ops, strategy):
    """The production path must be byte-identical to the reference
    interpreter (``force_interpreted``) — same rows, same row ids, same
    change sets — for full evaluation AND for differentiation, over every
    plan in the battery and randomized tables/mutations, whichever layout
    its inputs arrive in: row-major relations (overlay reads, operator
    outputs) and the columnar relations storage scans hand over. The
    kernels and the affected-key restrictions read ``Relation.columns``
    either way; the input layout only decides which view is derived
    lazily."""
    items_old = build_tables(items, "i")
    lookup_old = build_tables(lookups, "l")
    item_ops, additions = item_mutation
    items_new, items_delta = mutate(items_old, item_ops, additions, "i")
    lookup_new, lookup_delta = mutate(lookup_old, lookup_ops, [], "l")

    old_rels = {"items": items_old, "lookup": lookup_old}
    new_rels = {"items": items_new, "lookup": lookup_new}
    deltas = {"items": items_delta, "lookup": lookup_delta}
    source = DictDeltaSource(old_rels, new_rels, deltas)
    old_cols, new_cols = columnar(old_rels), columnar(new_rels)
    columnar_source = DictDeltaSource(old_cols, new_cols, deltas)

    for plan in PLANS:
        with force_interpreted():
            interpreted_old = evaluate(plan, DictResolver(old_rels))
            interpreted_new = evaluate(plan, DictResolver(new_rels))
            interpreted_changes, __ = differentiate(
                plan, source, outer_join_strategy=strategy)
        for old, new, delta_source in ((old_rels, new_rels, source),
                                       (old_cols, new_cols, columnar_source)):
            produced_old = evaluate(plan, DictResolver(old))
            produced_new = evaluate(plan, DictResolver(new))
            produced_changes, __ = differentiate(
                plan, delta_source, outer_join_strategy=strategy)

            assert produced_old.row_ids == interpreted_old.row_ids
            assert produced_old.rows == interpreted_old.rows
            assert produced_new.row_ids == interpreted_new.row_ids
            assert produced_new.rows == interpreted_new.rows
            assert list(produced_changes) == list(interpreted_changes)


# The aggregate battery's items also carry a FLOAT column holding NaN and
# -0.0, every NaN a fresh object (as rows read back from storage hold).
ITEMS_F = schema_of(("id", SqlType.INT), ("grp", SqlType.TEXT),
                    ("f", SqlType.FLOAT), ("val", SqlType.INT),
                    table="items")
PROVIDER_F = DictSchemaProvider({"items": ITEMS_F, "lookup": LOOKUP})
floats = st.none() | st.sampled_from(["nan", "-0.0", "0.0", "1.5"]).map(float)
items_f_rows = st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(GROUPS), floats,
              st.integers(0, 12)),
    max_size=10)
mutations_f = st.tuples(
    st.lists(st.sampled_from(["keep", "delete", "update"]), max_size=10),
    items_f_rows)

# Aggregate battery for the stateful three-way property: every
# retractable shape (COUNT/COUNT_IF/SUM/AVG/MIN/MAX, DISTINCT-qualified
# aggregates over INT and FLOAT, scalar aggregates, DISTINCT, aggregation
# above a join) plus one non-retractable shape (median) pinning the
# recompute fallback.
AGG_QUERIES = [
    "SELECT grp, count(*) n, sum(val) s, min(val) lo, max(val) hi, "
    "avg(val) m FROM items GROUP BY grp",
    "SELECT grp, count_if(val > 5) big, count(distinct val) dv, "
    "sum(distinct val) ds FROM items GROUP BY grp",
    "SELECT count(*) n, sum(val) s, max(val) hi FROM items",
    "SELECT DISTINCT grp FROM items",
    "SELECT l.label, count(*) n, min(i.val) lo FROM items i "
    "JOIN lookup l ON i.grp = l.key GROUP BY l.label",
    "SELECT grp, median(val) md FROM items GROUP BY grp",
    "SELECT grp, count(distinct f) df, count(f) cf FROM items GROUP BY grp",
]
AGG_PLANS = [build_plan(parse_query(sql), PROVIDER_F) for sql in AGG_QUERIES]


def canon(changes: ChangeSet) -> list:
    """Order-independent canonical form of a change set."""
    return sorted((change.action.value, change.row_id, change.row)
                  for change in changes)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(items=items_f_rows,
       lookups=lookup_rows,
       scripts=st.lists(mutations_f, min_size=1, max_size=3))
def test_stateful_aggregate_three_way_equivalence(items, lookups, scripts):
    """The three aggregate maintenance strategies must be byte-identical
    on ``(row_id, row)`` output: the stateful accumulator fold (state
    carried across a *sequence* of refresh intervals), the endpoint-
    recompute path (``force_stateless``, the paper's semantics), and full
    recomputation — across randomized insert/update/delete workloads,
    which exercise MIN/MAX extremum deletions and vanishing groups."""
    for plan in AGG_PLANS:
        store = AggStateStore()
        items_current = build_tables(items, "i", ITEMS_F)
        lookup_current = build_tables(lookups, "l")
        for step, (item_ops, additions) in enumerate(scripts):
            items_next, items_delta = mutate(items_current, item_ops,
                                             additions, f"i{step}")
            old_rels = {"items": items_current, "lookup": lookup_current}
            new_rels = {"items": items_next, "lookup": lookup_current}
            source = DictDeltaSource(
                old_rels, new_rels,
                {"items": items_delta, "lookup": ChangeSet()})

            store.begin_refresh(("fp",), step)
            stateful, __ = differentiate(plan, source, agg_state=store)
            store.commit_refresh(step + 1)
            with force_stateless():
                stateless, __ = differentiate(plan, source)
            assert canon(stateful) == canon(stateless)

            # Both must turn Q(old) into exactly Q(new), ids included.
            old_out = evaluate(plan, DictResolver(old_rels))
            new_out = evaluate(plan, DictResolver(new_rels))
            state = dict(old_out.pairs())
            stateful.validate(state)
            for change in deletes(stateful):
                assert state.pop(change.row_id) == change.row
            for change in inserts(stateful):
                assert change.row_id not in state
                state[change.row_id] = change.row
            assert state == dict(new_out.pairs())

            items_current = items_next
        assert store.invalidations == []  # continuity held throughout


@settings(max_examples=40, deadline=None)
@given(items=items_rows, additions=items_rows)
def test_insert_only_fast_path_matches(items, additions):
    """The consolidation-skipping insert-only path must produce the same
    net effect as the consolidating path."""
    plan = build_plan(parse_query(
        "SELECT id, val FROM items WHERE val > 2"), PROVIDER)
    items_old = build_tables(items, "i")
    items_new, delta = mutate(items_old, [], additions, "i")
    source = DictDeltaSource(
        {"items": items_old, "lookup": build_tables([], "l")},
        {"items": items_new, "lookup": build_tables([], "l")},
        {"items": delta})
    changes, stats = differentiate(plan, source)
    assert stats.consolidation_skipped
    old_out = evaluate(plan, DictResolver({"items": items_old}))
    new_out = evaluate(plan, DictResolver({"items": items_new}))
    state = dict(old_out.pairs())
    for change in inserts(changes):
        state[change.row_id] = change.row
    assert state == dict(new_out.pairs())


# ---------------------------------------------------------------------------
# Parallel refresh equivalence: serial vs DAG-parallel vs partition-parallel.
# ---------------------------------------------------------------------------

import random

from repro import Database
from repro.util.timeutil import MINUTE, SECOND

_DT_NAMES = ("dt0", "dt1", "dt2", "dt3")


def _parallel_workload(seed):
    """Render a seed into a deterministic workload: a randomized multi-DT
    graph over one wide source table plus a timed mutation script. All
    randomness is materialized here, so the same workload replays
    identically on every parallelism configuration."""
    rng = random.Random(seed)

    def batch(count, tag):
        return ", ".join(
            f"({rng.randrange(0, 9)}, {tag * 100000 + n})"
            for n in range(count))

    ddl = []
    # Every DT projects (k, v), so any DT can feed any later template.
    # Join operands come only from aggregated parents (unique k), so the
    # graph cannot blow up multiplicatively.
    agg_parents = []
    parents = ["src"]
    for name in _DT_NAMES[:rng.randint(2, 4)]:
        kind = rng.choice(("agg", "filter", "distinct", "join"))
        if kind == "join" and len(agg_parents) < 2:
            kind = "agg"
        if kind == "agg":
            parent = rng.choice(parents)
            query = (f"SELECT k, sum(v) v FROM {parent} GROUP BY k")
            agg_parents.append(name)
        elif kind == "filter":
            parent = rng.choice(parents)
            modulus = rng.randint(2, 5)
            query = (f"SELECT k, v FROM {parent} "
                     f"WHERE v % {modulus} = {rng.randrange(modulus)}")
        elif kind == "distinct":
            parent = rng.choice(parents)
            query = f"SELECT DISTINCT k, v % 11 v FROM {parent}"
        else:
            left, right = rng.sample(agg_parents, 2)
            query = (f"SELECT a.k k, a.v + b.v v FROM {left} a "
                     f"JOIN {right} b ON a.k = b.k")
        ddl.append(f"CREATE DYNAMIC TABLE {name} TARGET_LAG = '1 minute' "
                   f"WAREHOUSE = wh AS {query}")
        parents.append(name)
    names = [statement.split()[3] for statement in ddl]

    mutations = []
    for step in range(1, rng.randint(2, 4)):
        statements = [f"INSERT INTO src VALUES "
                      f"{batch(rng.randint(200, 600), step)}"]
        if rng.random() < 0.5:
            modulus = rng.randint(3, 7)
            statements.append(f"DELETE FROM src WHERE v % {modulus} = "
                              f"{rng.randrange(modulus)}")
        mutations.append((step * 70 * SECOND, statements))
    return batch(rng.randint(400, 700), 0), ddl, names, mutations


def _run_parallel_workload(workload, parallelism=None, partition_fanout=None):
    initial, ddl, names, mutations = workload
    db = Database(parallelism=parallelism, partition_fanout=partition_fanout)
    db.create_warehouse("wh", size=4)
    db.execute("CREATE TABLE src (k INT, v INT)")
    db.execute(f"INSERT INTO src VALUES {initial}")
    for statement in ddl:
        db.execute(statement)

    def run_all(statements):
        def run():
            for statement in statements:
                db.execute(statement)
        return run

    for when, statements in mutations:
        db.scheduler.at(when, run_all(statements))
    db.scheduler.run_until(5 * MINUTE)
    return {name: sorted(
        db.catalog.versioned_table(name).rows_by_id().items())
        for name in names}


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**9), workers=st.integers(2, 4),
       fanout=st.integers(2, 4))
def test_parallel_refresh_equivalence(seed, workers, fanout):
    """The tentpole invariant of the parallel refresh subsystem: for ANY
    DT graph, ANY mutation stream, and ANY worker count, DAG-parallel and
    partition-parallel refresh produce ``(row_id, row)`` states
    byte-identical to the serial loop's — same rows, same row ids, in
    every dynamic table."""
    workload = _parallel_workload(seed)
    serial = _run_parallel_workload(workload)
    dag = _run_parallel_workload(workload, parallelism=workers)
    fanned = _run_parallel_workload(workload, partition_fanout=fanout)
    combined = _run_parallel_workload(workload, parallelism=workers,
                                      partition_fanout=fanout)
    assert dag == serial
    assert fanned == serial
    assert combined == serial
