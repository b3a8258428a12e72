"""Seeded ENG001 fixture: wall-clock reads outside the clock module.

The scheduler's ``tick`` reaches them two modules away; the rule reports
each read where it happens, which is where a pragma would justify it.
"""

import time
from datetime import datetime
from time import monotonic


def elapsed() -> float:
    return time.time()


def stamp() -> str:
    return datetime.now().isoformat()


def deadline(seconds: float) -> float:
    return monotonic() + seconds
