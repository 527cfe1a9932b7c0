"""Append-only write-ahead journal for accepted append batches.

The contract the serving tier needs is narrow: once
``MaintenanceScheduler.request_append`` returns, the batch must survive
a process crash.  The journal provides exactly that — the scheduler
writes an ``append`` record *before* acking, and startup recovery
replays every record not yet covered by a checkpoint.

Record framing
--------------
Each record is ``[4-byte big-endian payload length][4-byte CRC32 of the
payload][payload]`` where the payload is compact, sorted-key JSON.
Three record kinds exist::

    {"kind": "append",  "seq": 7, "table": {...}}      # rows accepted
    {"kind": "applied", "seqs": [7], "snapshot_version": 3}
    {"kind": "dropped", "seqs": [8]}                   # retries exhausted

``append`` is the durability boundary; ``applied`` / ``dropped`` are
bookkeeping markers.  Recovery replays from the newest checkpoint's
``applied_seq`` watermark, not from ``applied`` markers: a record
applied after the checkpoint was applied to in-memory state that died
with the process, so it must be replayed regardless.  ``dropped``
markers *are* honoured — rows the scheduler gave up on stay given up
on after a restart.

Torn tails
----------
A crash can land mid-write, leaving a truncated or corrupt record at
the end of the file.  :func:`read_journal` stops at the first record
that fails its length/CRC/JSON checks and reports the byte offset of
the last good record; :class:`JournalWriter` truncates the file to that
offset before appending, so the journal self-heals to its longest valid
prefix.  Only the *tail* may be sacrificed: a good record can never
follow a bad one, because records are written sequentially and flushed
in order.

fsync trade-off
---------------
A written record survives process death (the OS page cache outlives
the process); under ``journal_fsync`` it is fsync'd and survives power
loss too, at a large per-append latency cost.  The default is
write-only: the fault model of this repo's chaos tests is SIGKILL.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.relational.column import Column, ColumnType
from repro.relational.table import Table
from repro.reliability import faults
from repro.store import fs

#: Record header: payload length, payload CRC32 (both unsigned 32-bit BE).
_HEADER = struct.Struct(">II")

#: Upper bound on a single record payload; a length prefix beyond this
#: is treated as corruption rather than attempted as an allocation.
MAX_RECORD_BYTES = 256 * 1024 * 1024

#: The canonical JSON of a record payload (sorted keys, compact), with
#: one shared encoder rather than one per record.
_encode_payload = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class JournalError(Exception):
    """Raised when the journal cannot be written or a record is invalid."""


# ----------------------------------------------------------------------
# Table codec
# ----------------------------------------------------------------------
def table_to_payload(table: Table) -> dict[str, Any]:
    """Encode a table as a JSON-friendly dict (schema order preserved)."""
    return {
        "name": table.name,
        "columns": [
            {"name": column.name, "type": column.ctype.value, "values": column.values}
            for column in table.columns
        ],
    }


def table_from_payload(payload: dict[str, Any]) -> Table:
    """Decode a table from :func:`table_to_payload` output."""
    try:
        columns = [
            Column(entry["name"], ColumnType(entry["type"]), entry["values"])
            for entry in payload["columns"]
        ]
        return Table(str(payload["name"]), columns)
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"malformed table payload: {exc}") from exc


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------
def encode_record(record: dict[str, Any]) -> bytes:
    """Frame one record dict as length + CRC32 + canonical JSON bytes."""
    payload = _encode_payload(record).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise JournalError(
            f"record payload of {len(payload)} bytes exceeds {MAX_RECORD_BYTES}"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_record(blob: bytes, offset: int = 0) -> tuple[dict[str, Any], int]:
    """Decode one record from ``blob`` at ``offset``.

    Returns ``(record, end_offset)``; raises :class:`JournalError` on a
    truncated header/payload, CRC mismatch, or malformed JSON.
    """
    if offset + _HEADER.size > len(blob):
        raise JournalError("truncated record header")
    length, crc = _HEADER.unpack_from(blob, offset)
    if length > MAX_RECORD_BYTES:
        raise JournalError(f"implausible record length {length}")
    start = offset + _HEADER.size
    end = start + length
    if end > len(blob):
        raise JournalError("truncated record payload")
    payload = blob[start:end]
    if zlib.crc32(payload) != crc:
        raise JournalError("record CRC mismatch")
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalError(f"record payload is not valid JSON: {exc}") from exc
    if not isinstance(record, dict) or "kind" not in record:
        raise JournalError(f"record is not a kinded object: {record!r}")
    return record, end


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record plus its byte extent in the file."""

    record: dict[str, Any]
    offset: int
    end_offset: int

    @property
    def kind(self) -> str:
        return str(self.record.get("kind"))


@dataclass(frozen=True)
class JournalScan:
    """Result of scanning a journal file to its longest valid prefix.

    ``good_offset`` is the byte offset just past the last valid record
    (0 for a missing/empty journal); ``truncated_reason`` is None for a
    clean file, else why the scan stopped early (the torn tail).
    """

    records: tuple[JournalRecord, ...]
    good_offset: int
    truncated_reason: str | None = None

    @property
    def next_seq(self) -> int:
        """One past the highest ``append`` seq seen (1 for an empty log)."""
        highest = 0
        for entry in self.records:
            if entry.kind == "append":
                highest = max(highest, int(entry.record.get("seq", 0)))
        return highest + 1

    def dropped_seqs(self) -> frozenset[int]:
        """Seqs covered by ``dropped`` markers (never replayed)."""
        dropped: set[int] = set()
        for entry in self.records:
            if entry.kind == "dropped":
                dropped.update(int(seq) for seq in entry.record.get("seqs", ()))
        return frozenset(dropped)

    def rebuildable_seq(self) -> int:
        """Highest seq ``s`` whose batches ``1..s`` the journal all holds.

        Every seq up to it has its ``append`` record or a ``dropped``
        marker, so a checkpoint with ``applied_seq <= s`` can have its
        table rebuilt from this journal.
        """
        present = self.dropped_seqs() | {
            int(entry.record["seq"]) for entry in self.records if entry.kind == "append"
        }
        seq = 0
        while seq + 1 in present:
            seq += 1
        return seq


def read_journal(path: str | Path) -> JournalScan:
    """Scan a journal file, tolerating a torn/corrupt tail.

    Decodes records sequentially until the end of file or the first
    invalid record; everything from the first invalid byte on is
    reported as the torn tail (``truncated_reason``) and excluded from
    ``good_offset``.  A missing file scans as empty.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return JournalScan(records=(), good_offset=0)
    records: list[JournalRecord] = []
    offset = 0
    truncated_reason = None
    while offset < len(blob):
        try:
            record, end = decode_record(blob, offset)
        except JournalError as exc:
            truncated_reason = f"at byte {offset}: {exc}"
            break
        records.append(JournalRecord(record=record, offset=offset, end_offset=end))
        offset = end
    return JournalScan(
        records=tuple(records),
        good_offset=offset,
        truncated_reason=truncated_reason,
    )


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class JournalWriter:
    """Appends records to the journal, each written before its ack.

    Parameters
    ----------
    path:
        The journal file; parent directories are created.
    fsync:
        When True every record is fsync'd (machine-crash durable);
        otherwise records are written to the OS (process-crash durable).
    next_seq:
        First seq to assign (recovery passes ``JournalScan.next_seq``).
    truncate_at:
        Byte offset to truncate the file to before appending — the
        scan's ``good_offset``, healing a torn tail.  None appends to
        the file as-is (fresh journals).

    Not thread-safe by itself; the
    :class:`repro.storage.recovery.DurabilityCoordinator` serialises
    access.
    """

    def __init__(
        self,
        path: str | Path,
        fsync: bool = False,
        next_seq: int = 1,
        truncate_at: int | None = None,
    ):
        self._path = Path(path)
        self._fsync = bool(fsync)
        self._next_seq = int(next_seq)
        self._file = fs.open_append(self._path, truncate_at)
        self._offset = self._file.tell()

    @property
    def offset(self) -> int:
        """Current end-of-journal byte offset (all records durable)."""
        return self._offset

    @property
    def next_seq(self) -> int:
        """Seq the next :meth:`log_append` will assign."""
        return self._next_seq

    @property
    def fsync(self) -> bool:
        return self._fsync

    def log_append(self, table: Table) -> int:
        """Journal one accepted append batch; returns its seq.

        The record is durable (written, optionally fsync'd) when this
        returns — the caller may ack.  The ``journal.write`` failpoint
        fires before anything is written (a raising rule is a clean
        journal failure: nothing persisted, nothing acked); the
        ``journal.sync`` failpoint fires after the record is durable
        but before the caller learns the seq (a killing rule is the
        torn-ack crash recovery must replay).
        """
        faults.FAILPOINTS.inject(faults.JOURNAL_WRITE)
        seq = self._next_seq
        self._write(
            {"kind": "append", "seq": seq, "table": table_to_payload(table)}
        )
        self._next_seq = seq + 1
        faults.FAILPOINTS.inject(faults.JOURNAL_SYNC)
        return seq

    def mark_applied(self, seqs: Sequence[int], snapshot_version: int) -> None:
        """Record that ``seqs`` were applied by the given snapshot swap."""
        if not seqs:
            return
        self._write(
            {
                "kind": "applied",
                "seqs": [int(seq) for seq in seqs],
                "snapshot_version": int(snapshot_version),
            }
        )

    def mark_dropped(self, seqs: Iterable[int]) -> None:
        """Record that ``seqs`` were permanently dropped (never replay)."""
        seqs = [int(seq) for seq in seqs]
        if not seqs:
            return
        self._write({"kind": "dropped", "seqs": seqs})

    def _write(self, record: dict[str, Any]) -> None:
        blob = encode_record(record)
        try:
            fs.append(self._file, blob)
            if self._fsync:
                fs.sync(self._file)
        except (OSError, ValueError) as exc:  # ValueError: the file is closed
            raise JournalError(f"journal write to {self._path} failed: {exc}") from exc
        self._offset += len(blob)

    def sync(self) -> None:
        """fsync every record written so far (a no-op when each already was)."""
        if not self._fsync:
            fs.sync(self._file)

    def close(self) -> None:
        self._file.close()
