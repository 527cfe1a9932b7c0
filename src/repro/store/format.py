"""Checksummed on-disk snapshots of the compact store.

``freeze`` writes a :class:`CompactSpeechStore`'s sections into one
file; ``attach`` maps that file read-only and wraps numpy views over
the mapped pages — no per-speech deserialisation, so attach cost is
O(pools + checksum scan) regardless of speech count, and N processes
attaching the same file share a single page-cache copy.

File layout (all integers little-endian)::

    0   magic            8 bytes  b"RVSNAP01"
    8   format version   u32
    12  toc crc32        u32   over the TOC JSON bytes
    16  toc length       u64
    24  payload crc32    u32   over file[44 + toc length : file length]
    28  reserved         u32   (zero)
    32  file length      u64   total size the file must have
    40  header crc32     u32   over bytes [0, 40)
    44  TOC JSON, then zero padding to an 8-byte boundary, then the
        section payload (each section 8-aligned)

The TOC records, per section, its payload-relative offset, byte length,
dtype and element count, plus snapshot metadata (speech count, the
publisher's snapshot version).  The sections are the compact layout's
:data:`~repro.store.columnar.SECTION_NAMES`; a file missing one is
rejected.  Every byte of the file is covered by exactly one of the
three CRCs, so the corruption matrix is total: any flipped byte,
truncated tail, bad magic or version skew raises a typed
:class:`~repro.store.errors.SnapshotError` — an attached snapshot can
never silently return wrong matches.

Freezing is deterministic: the same store contents always produce the
same bytes, which lets a restarted service republish a version
idempotently (identical content, atomic rename) and lets the
regression gate treat bytes/speech as an absolute metric.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.store import fs
from repro.store.columnar import SECTION_NAMES, CompactSpeechStore
from repro.store.errors import (
    SnapshotCorruptionError,
    SnapshotFormatError,
    SnapshotVersionError,
)

MAGIC = b"RVSNAP01"
#: 3 since stores list their speeches scope-major: a version-2 file
#: lists the same speeches target-major, so it must not be attached
#: and compared with a store built now.
SNAPSHOT_FORMAT_VERSION = 3

_HEADER = struct.Struct("<8sIIQIIQ")  # magic .. file length (40 bytes)
_HEADER_CRC = struct.Struct("<I")
HEADER_SIZE = _HEADER.size + _HEADER_CRC.size  # 44

#: The canonical JSON of a TOC (sorted keys, compact), one shared encoder.
_encode_toc = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: dtype codes allowed in a TOC; "bytes" marks an opaque blob section.
_DTYPES = {"<i4", "<i8", "<f8", "<u8"}


def _align8(value: int) -> int:
    return (value + 7) & ~7


def _section_bytes(payload: Any) -> tuple[bytes, str, int]:
    """(raw bytes, dtype code, element count) for one section."""
    if isinstance(payload, np.ndarray):
        dtype = payload.dtype.newbyteorder("<")
        array = np.ascontiguousarray(payload, dtype=dtype)
        return array.tobytes(), dtype.str, len(array)
    raw = bytes(payload)
    return raw, "bytes", len(raw)


def freeze(
    store: "CompactSpeechStore | Any",
    path: str | Path,
    *,
    snapshot_version: int | None = None,
) -> Path:
    """Write ``store`` as a compact snapshot file (atomically).

    ``store`` may be a mutable :class:`SpeechStore` (compacted from
    scratch first) or a :class:`CompactSpeechStore`, which is only
    written.  The file appears at ``path`` only when complete, through
    :func:`repro.store.fs.atomic_write`.
    """
    compacted = CompactSpeechStore.from_store(store)
    path = Path(path)

    toc_sections: dict[str, dict[str, Any]] = {}
    chunks: list[bytes] = []
    cursor = 0
    sections = compacted.sections()
    for name in sorted(sections):
        raw, dtype, count = _section_bytes(sections[name])
        aligned = _align8(cursor)
        if aligned > cursor:
            chunks.append(b"\x00" * (aligned - cursor))
            cursor = aligned
        toc_sections[name] = {
            "offset": cursor,
            "length": len(raw),
            "dtype": dtype,
            "count": count,
        }
        chunks.append(raw)
        cursor += len(raw)
    payload = b"".join(chunks)

    toc = {
        "sections": toc_sections,
        "meta": {
            "speeches": len(compacted),
            "snapshot_version": snapshot_version,
        },
    }
    toc_bytes = _encode_toc(toc).encode("utf-8")
    payload_start = _align8(HEADER_SIZE + len(toc_bytes))
    gap = b"\x00" * (payload_start - HEADER_SIZE - len(toc_bytes))
    file_length = payload_start + len(payload)

    header = _HEADER.pack(
        MAGIC,
        SNAPSHOT_FORMAT_VERSION,
        zlib.crc32(toc_bytes),
        len(toc_bytes),
        zlib.crc32(gap + payload),
        0,
        file_length,
    )
    header += _HEADER_CRC.pack(zlib.crc32(header))

    with fs.atomic_write(path, header, toc_bytes, gap, payload):
        pass
    return path


def header_crc(path: str | Path) -> int:
    """The header checksum of a frozen snapshot, read from its header alone.

    It covers the three other checksums and the file length, so it
    names the file's content without reading the file; :func:`attach`
    still verifies every byte.
    """
    with open(path, "rb") as handle:
        header = handle.read(HEADER_SIZE)
    if len(header) < HEADER_SIZE:
        raise SnapshotCorruptionError(f"snapshot {path} is shorter than its header")
    return _HEADER_CRC.unpack_from(header, _HEADER.size)[0]


def attach(path: str | Path) -> CompactSpeechStore:
    """Open a frozen snapshot via mmap, verifying every checksum.

    Raises :class:`SnapshotFormatError` when the file is not a snapshot,
    :class:`SnapshotVersionError` on format-version skew and
    :class:`SnapshotCorruptionError` on any checksum mismatch,
    truncation or inconsistent section table.
    """
    path = Path(path)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise SnapshotCorruptionError(f"cannot open snapshot {path}: {exc}") from exc
    try:
        size = os.fstat(handle.fileno()).st_size
        if size < HEADER_SIZE:
            prefix = handle.read(min(size, len(MAGIC)))
            if prefix != MAGIC[: len(prefix)]:
                raise SnapshotFormatError(f"{path} is not a compact-store snapshot")
            raise SnapshotCorruptionError(
                f"snapshot {path} is truncated ({size} bytes < {HEADER_SIZE} header)"
            )
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except SnapshotFormatError:
        handle.close()
        raise
    except SnapshotCorruptionError:
        handle.close()
        raise
    except (OSError, ValueError) as exc:
        handle.close()
        raise SnapshotCorruptionError(f"cannot map snapshot {path}: {exc}") from exc

    view: memoryview | None = None
    toc_view: memoryview | None = None
    sections: dict[str, Any] | None = None
    try:
        view = memoryview(mapped)
        (
            magic,
            version,
            toc_crc,
            toc_length,
            payload_crc,
            _reserved,
            file_length,
        ) = _HEADER.unpack(view[: _HEADER.size])
        if magic != MAGIC:
            raise SnapshotFormatError(f"{path} is not a compact-store snapshot")
        (header_crc,) = _HEADER_CRC.unpack(view[_HEADER.size : HEADER_SIZE])
        if zlib.crc32(view[: _HEADER.size]) != header_crc:
            raise SnapshotCorruptionError(f"snapshot {path} header checksum mismatch")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotVersionError(
                f"snapshot {path} has format version {version} "
                f"(expected {SNAPSHOT_FORMAT_VERSION})"
            )
        if file_length != size:
            raise SnapshotCorruptionError(
                f"snapshot {path} is {size} bytes but records {file_length}"
            )
        toc_end = HEADER_SIZE + toc_length
        if toc_end > size:
            raise SnapshotCorruptionError(
                f"snapshot {path} section table extends past end of file"
            )
        toc_view = view[HEADER_SIZE:toc_end]
        if zlib.crc32(toc_view) != toc_crc:
            raise SnapshotCorruptionError(
                f"snapshot {path} section-table checksum mismatch"
            )
        if zlib.crc32(view[toc_end:]) != payload_crc:
            raise SnapshotCorruptionError(f"snapshot {path} payload checksum mismatch")
        try:
            toc = json.loads(bytes(toc_view).decode("utf-8"))
            described = toc["sections"]
            meta = dict(toc["meta"])
        except (ValueError, KeyError, TypeError) as exc:
            raise SnapshotCorruptionError(
                f"snapshot {path} section table is not valid"
            ) from exc
        missing = SECTION_NAMES - set(described)
        if missing:
            raise SnapshotCorruptionError(
                f"snapshot {path} is missing sections: {sorted(missing)}"
            )

        payload_start = _align8(toc_end)
        sections = {}
        for name, entry in described.items():
            try:
                offset = payload_start + int(entry["offset"])
                length = int(entry["length"])
                dtype = str(entry["dtype"])
                count = int(entry["count"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SnapshotCorruptionError(
                    f"snapshot {path} section {name!r} entry is not valid"
                ) from exc
            if offset < payload_start or offset + length > size or length < 0:
                raise SnapshotCorruptionError(
                    f"snapshot {path} section {name!r} lies outside the file"
                )
            if dtype == "bytes":
                sections[name] = view[offset : offset + length]
                continue
            if dtype not in _DTYPES:
                raise SnapshotCorruptionError(
                    f"snapshot {path} section {name!r} has unknown dtype {dtype!r}"
                )
            if count * np.dtype(dtype).itemsize != length:
                raise SnapshotCorruptionError(
                    f"snapshot {path} section {name!r} count/length mismatch"
                )
            sections[name] = np.frombuffer(
                mapped, dtype=dtype, count=count, offset=offset
            )
        return CompactSpeechStore(sections, meta, backing=(mapped, handle))
    except Exception:
        # Release every view over the map before closing it — closing
        # with exported buffers alive raises BufferError and would mask
        # the typed error we are propagating.
        sections = None
        toc_view = None
        view = None
        try:
            mapped.close()
        except BufferError:  # pragma: no cover - a stray view pins the map
            pass  # the GC unmaps it once the last view dies
        handle.close()
        raise
