"""Seeded ENG001 fixture: the scheduler side.

``tick`` never reads a clock itself — the reads are two modules away.
"""

from util.timers import elapsed


def tick() -> None:
    elapsed()
