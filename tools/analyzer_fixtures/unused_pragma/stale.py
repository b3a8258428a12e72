"""Seeded ENG008 fixture: stale suppression pragmas.

The wall-clock read the first pragma once justified has been replaced
by a plain sum — the comment now exempts nothing and must be reported
(and a pragma naming no rule is just as stale).
"""


def compute_total(values: list) -> int:
    return sum(values)  # eng: allow-ENG001 (stale: read was removed)


def other(values: list) -> int:
    return len(values)  # eng: allow-wall-clock (no such rule)
