"""Seeded ENG003 fixture: row materialization in a hot-path module."""


def slow_filter(relation, predicate):
    # VIOLATION: .rows transposes the columnar relation into tuples.
    return [row for row in relation.rows if predicate(row)]


def slow_delta(relation):
    # VIOLATION: .pairs() materializes (row_id, row) tuples.
    return dict(relation.pairs())
