"""Durability: write-ahead logging, checkpoints, and crash recovery.

Everything the engine keeps in memory — micro-partitions, the catalog,
the HLC, table version histories, and the per-DT aggregate accumulator
stores — can be made to survive a process crash by opening the
:class:`~repro.api.database.Database` with a ``path``. The subsystem has
three layers:

* :mod:`repro.durability.wal` — an append-only, length-prefixed,
  CRC-checksummed log of committed transactions, DDL operations, and
  refresh-interval advances, each tagged with its HLC timestamp. Appends
  happen inside the commit mutex, so WAL order equals commit order.
* :mod:`repro.durability.checkpoint` — point-in-time snapshots of the
  whole database (partitions pooled so zero-copy clones stay shared),
  after which the WAL is truncated.
* :mod:`repro.durability.recovery` — on open: load the newest valid
  checkpoint, replay the WAL tail with the *recorded* commit timestamps,
  discard torn tail records, and reinitialize any aggregate state whose
  continuity token no longer matches (the self-healing invalidation path
  of :mod:`repro.ivm.aggstate`).

All file I/O for data lives in this package — ``python -m
tools.analyzer`` (rule ENG005) enforces that nothing else in the engine
opens data files directly.
"""

from repro.durability.manager import DurabilityManager
from repro.durability.wal import WriteAheadLog, WalRecord, scan_wal
from repro.errors import DurabilityError

__all__ = [
    "DurabilityManager",
    "DurabilityError",
    "WriteAheadLog",
    "WalRecord",
    "scan_wal",
]
