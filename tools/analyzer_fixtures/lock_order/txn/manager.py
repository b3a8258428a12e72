"""Seeded ENG002 fixture: lock acquisition in arbitrary (unsorted) order."""


def commit_writes(manager, writes: dict) -> None:
    # VIOLATION: dict order is insertion order, not a global lock
    # order — two transactions locking {a, b} and {b, a} deadlock.
    for table in writes:
        manager.lock(table)


def double_acquire(locks, first: str, second: str) -> None:
    # VIOLATION: two standalone acquisitions with caller-chosen order.
    locks.acquire(first)
    locks.acquire(second)
