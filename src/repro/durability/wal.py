"""The write-ahead log: an append-only file of framed JSON records.

On-disk layout (format version 3)::

    +--------------------------+
    | magic  "RPRWAL" 0x00 0x03|   8 bytes; last byte = format version
    +--------------------------+
    | len (u32 BE) | crc (u32) |   per record: payload length + CRC32
    | payload (UTF-8 JSON)     |
    +--------------------------+
    | ... more records ...     |

Every record carries a monotonically increasing ``seq`` (which survives
WAL truncation at checkpoints, so replay can skip records a checkpoint
already covers) and a ``kind`` dispatched by recovery. A commit record
holds each written table's :class:`~repro.storage.table.StagedWrite`
through the codec; its inserts are a column block, so they are encoded
as one array per column (format 3; format 2 held one array per row).
Records are appended under the transaction manager's commit mutex
(commit records) or the catalog mutex (DDL records), so file order
equals commit order.

**Fsync semantics**: with ``fsync=True`` (the default) every append is
flushed and fsynced before the commit returns — one fsync per committed
transaction, batching all of the transaction's rows. With ``fsync=False``
appends are flushed to the OS but not forced to stable storage: a
process crash loses nothing, a machine crash may lose the unsynced
suffix (which recovery then discards as a torn tail).

**Torn tails**: :func:`scan_wal` stops at the first record whose length
prefix overruns the file, whose checksum mismatches, or whose payload is
not valid JSON, and reports the byte offset of the last good record.
Opening the WAL for append truncates the file back to that offset, so a
partially written record from a crash mid-append never survives.

Compatibility rule: a WAL (or checkpoint) written by format version N is
only read by engines whose format version equals N — there is no
cross-version migration; bump the version byte whenever the record
schema or the codec allowlist changes incompatibly.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from typing import NamedTuple, Optional

from repro.errors import DurabilityError
from repro.faults import inject

#: File magic; the final byte is the on-disk format version.
WAL_MAGIC = b"RPRWAL\x00\x03"
FORMAT_VERSION = 3

_FRAME = struct.Struct(">II")  # (payload length, CRC32 of payload)


class WalRecord(NamedTuple):
    """One decoded WAL record plus the file offset just past it."""

    seq: int
    payload: dict
    end_offset: int


class WalScan(NamedTuple):
    """Result of scanning a WAL file."""

    records: list[WalRecord]
    good_end: int    # offset just past the last intact record
    file_size: int   # actual file size; > good_end means a torn tail


def scan_wal(path: str | os.PathLike) -> WalScan:
    """Read every intact record of a WAL file, stopping at the torn tail.

    Raises :class:`~repro.errors.DurabilityError` when the file exists
    but its header is not a supported WAL header (corruption at the head
    of the log is not recoverable, unlike a torn tail).
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < len(WAL_MAGIC) or data[:len(WAL_MAGIC)] != WAL_MAGIC:
        raise DurabilityError(
            f"{os.fspath(path)!r} is not a WAL file of format version "
            f"{FORMAT_VERSION}")
    records: list[WalRecord] = []
    offset = len(WAL_MAGIC)
    good_end = offset
    size = len(data)
    while offset + _FRAME.size <= size:
        length, crc = _FRAME.unpack_from(data, offset)
        body_start = offset + _FRAME.size
        body_end = body_start + length
        if body_end > size:
            break  # torn tail: length prefix overruns the file
        body = data[body_start:body_end]
        if zlib.crc32(body) != crc:
            break  # torn tail: checksum mismatch
        try:
            payload = json.loads(body.decode("utf-8"))
            seq = payload["seq"]
        except (ValueError, KeyError, UnicodeDecodeError):
            break  # torn tail: undecodable payload
        offset = body_end
        good_end = offset
        records.append(WalRecord(seq, payload, good_end))
    return WalScan(records, good_end, size)


class WriteAheadLog:
    """Append side of the WAL. Opening truncates any torn tail left by a
    crash, then positions at the end of the last intact record."""

    def __init__(self, path: str | os.PathLike, fsync: bool = True,
                 next_seq: Optional[int] = None):
        self.path = os.fspath(path)
        self.fsync = fsync
        self._mutex = threading.Lock()
        if os.path.exists(self.path):
            scan = scan_wal(self.path)
            derived = scan.records[-1].seq + 1 if scan.records else 1
            self._handle = open(self.path, "r+b")
            if scan.file_size != scan.good_end:
                self._handle.truncate(scan.good_end)
            self._handle.seek(scan.good_end)
            self._position = scan.good_end
        else:
            derived = 1
            self._handle = open(self.path, "w+b")
            self._handle.write(WAL_MAGIC)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._position = len(WAL_MAGIC)
        # A checkpoint may have truncated the log while seq keeps
        # counting: the caller (recovery) knows the true next seq.
        self._next_seq = max(derived, next_seq or 1)

    def append(self, payload: dict) -> WalRecord:
        """Frame, write, and (optionally) fsync one record. The ``seq``
        key is assigned here; callers pass the rest of the payload.

        Failure discipline: if anything goes wrong after bytes started
        hitting the file — a real I/O error or an injected ``wal.torn``
        / ``wal.fsync`` fault — the append rolls the file back to the
        last good record and re-raises, so a *live* WAL never carries a
        torn frame. The one exception is a fault flagged ``leave_torn``:
        it simulates a crash mid-write, so the partial frame is flushed
        and deliberately left for recovery's torn-tail truncation.
        """
        with self._mutex:
            inject("wal.append", path=self.path)
            seq = self._next_seq
            payload = dict(payload, seq=seq)
            body = json.dumps(payload, separators=(",", ":"),
                              sort_keys=True).encode("utf-8")
            try:
                self._handle.write(_FRAME.pack(len(body), zlib.crc32(body)))
                inject("wal.torn", path=self.path, seq=seq)
                self._handle.write(body)
                self._handle.flush()
                inject("wal.fsync", path=self.path, seq=seq)
                if self.fsync:
                    os.fsync(self._handle.fileno())
            except BaseException as exc:
                if getattr(exc, "leave_torn", False):
                    # Simulated crash mid-append: surface the partial
                    # frame to the file so recovery sees a torn tail.
                    self._handle.flush()
                else:
                    try:
                        self._handle.truncate(self._position)
                        self._handle.seek(self._position)
                    except OSError:  # pragma: no cover - double fault
                        pass
                raise
            self._next_seq += 1
            self._position += _FRAME.size + len(body)
            return WalRecord(seq, payload, self._position)

    def position(self) -> int:
        """Current end-of-log byte offset (grows monotonically between
        resets; the crash-recovery property test keys snapshots on it)."""
        with self._mutex:
            return self._position

    @property
    def next_seq(self) -> int:
        with self._mutex:
            return self._next_seq

    def reset(self) -> None:
        """Truncate the log back to its header (after a checkpoint).
        Record sequence numbers keep counting across resets — replay uses
        them to skip records a checkpoint already covers, which makes a
        crash *between* checkpoint write and WAL reset harmless."""
        with self._mutex:
            self._handle.truncate(len(WAL_MAGIC))
            self._handle.seek(len(WAL_MAGIC))
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self._position = len(WAL_MAGIC)

    def close(self) -> None:
        with self._mutex:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()
