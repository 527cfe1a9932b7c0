"""Compact, zero-copy speech store.

The read-optimized counterpart of
:class:`repro.system.speech_store.SpeechStore`: the same speeches and
the same matching semantics, held as flat columnar arrays that freeze
to a checksummed snapshot file and attach back via mmap with no
per-speech deserialisation, so recovery maps a million-speech store
instead of rebuilding it.
"""

from repro.store.columnar import CompactSpeechStore, Compaction
from repro.store.errors import (
    SnapshotCorruptionError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
)
from repro.store.format import SNAPSHOT_FORMAT_VERSION, attach, freeze, header_crc
from repro.store.publish import SNAPSHOTS_KEPT, SnapshotPublisher, snapshot_filename

__all__ = [
    "CompactSpeechStore",
    "Compaction",
    "SnapshotCorruptionError",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "SNAPSHOT_FORMAT_VERSION",
    "attach",
    "freeze",
    "header_crc",
    "SNAPSHOTS_KEPT",
    "SnapshotPublisher",
    "snapshot_filename",
]
