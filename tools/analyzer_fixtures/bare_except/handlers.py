"""Seeded ENG006 fixture: catch-alls that swallow the exception must
fire; the variant that re-raises must not."""


def swallows_exception(compute):
    try:
        return compute()
    except Exception:
        return None  # BAD: the error silently becomes a normal result


def swallows_bare(compute):
    try:
        return compute()
    except:  # noqa: E722  BAD: bare catch-all, nothing recorded
        pass


def cleanup_then_reraise(compute, rollback):
    # GOOD: broad catch for cleanup is fine when it re-raises.
    try:
        return compute()
    except BaseException:
        rollback()
        raise
