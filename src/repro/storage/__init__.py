"""Durable serving state: write-ahead journal, checkpoints, recovery.

The serving tier survives *in-process* faults (worker crashes, failed
maintenance jobs) via `repro.reliability`; this package makes it
survive *process death*.  Three pieces compose:

* :mod:`repro.storage.durability` — the append-only write-ahead
  journal of length-prefixed, CRC32-checksummed records, so an acked
  batch is never lost to a crash.
* :mod:`repro.storage.checkpoint` — atomic checkpoints: one manifest
  per snapshot swap that names the snapshot file the publisher froze
  for the version.  Neither the store nor the maintained table is
  written again: the snapshot holds the one, the journal every
  appended batch of the other.
* :mod:`repro.storage.recovery` — startup recovery (the newest valid
  checkpoint's snapshot attached, its table rebuilt from the base
  table and the journal's covered batches, then replay of unapplied
  journal records through the deterministic maintainer) and the
  :class:`DurabilityCoordinator` that the maintenance scheduler
  threads journal/checkpoint calls through at runtime.

On-disk layout under a service's ``data_dir``::

    data_dir/
      journal.wal                  append-only record log
      snapshots/                   unless ``snapshot_dir`` is set
        store-v000000000007.snap   compact columnar speech-store snapshot
      checkpoints/
        ckpt-000000000042.json     watermark, version, journal offset,
                                   snapshot path and header checksum

Every file operation goes through :mod:`repro.store.fs`, in this order
per swap: the journal record (fsync'd under ``journal_fsync``) before
the ack; old snapshots unlinked; the snapshot written to a temp file
``.<name>.tmp-<pid>``, fsync'd, renamed into place, its directory
fsync'd; the ``applied`` marker, then a journal fsync; the manifest as
the snapshot; old manifests unlinked.  A new journal's directory is
fsync'd, and so is the parent of every directory the tier creates,
before anything is written in it; a restart cuts a torn journal tail (fsync'd) and deletes the
dead run's snapshot and temp files.
"""

from repro.storage.checkpoint import CheckpointManager, LoadedCheckpoint
from repro.storage.durability import (
    JournalError,
    JournalRecord,
    JournalScan,
    JournalWriter,
    decode_record,
    encode_record,
    read_journal,
    table_from_payload,
    table_to_payload,
)
from repro.storage.recovery import (
    DurabilityCoordinator,
    RecoveredState,
    recover_state,
)

__all__ = [
    "CheckpointManager",
    "DurabilityCoordinator",
    "JournalError",
    "JournalRecord",
    "JournalScan",
    "JournalWriter",
    "LoadedCheckpoint",
    "RecoveredState",
    "decode_record",
    "encode_record",
    "read_journal",
    "recover_state",
    "table_from_payload",
    "table_to_payload",
]
