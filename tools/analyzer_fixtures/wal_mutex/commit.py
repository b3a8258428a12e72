"""Seeded ENG007 fixture: WAL commit records logged outside the commit
mutex."""


def commit_unlocked(manager, ts, writes) -> None:
    # VIOLATION: log_commit with no enclosing `with ... commit_mutex:` —
    # concurrent committers could interleave, making the on-disk WAL
    # record order diverge from the in-memory apply order.
    manager.durability.log_commit(ts, writes, None)


def commit_wrong_lock(manager, ts, writes) -> None:
    with manager.catalog_mutex:
        # VIOLATION: a lock is held, but it is not the commit mutex.
        manager.durability.log_commit(ts, writes, None)


def commit_locked(manager, ts, writes) -> None:
    with manager.commit_mutex:
        # OK: lexically inside the commit critical section.
        manager.durability.log_commit(ts, writes, None)
