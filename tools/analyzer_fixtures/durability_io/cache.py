"""Seeded ENG005 fixture: direct file I/O outside ``durability/``."""

import os


def cache_result(path: str, payload: bytes) -> None:
    # VIOLATION: bare open() outside the durability subsystem — this
    # write is invisible to recovery and not crash-atomic.
    with open(path, "wb") as handle:
        handle.write(payload)
    # VIOLATION: the fsync/replace discipline belongs in repro/durability.
    os.replace(path, path + ".final")


def read_sidecar(path) -> str:
    # VIOLATION: Path convenience I/O is still file I/O.
    return path.read_text()
