"""Durable serving state: write-ahead journal, checkpoints, recovery.

The serving tier survives *in-process* faults (worker crashes, failed
maintenance jobs) via `repro.reliability`; this package makes it
survive *process death*.  Three pieces compose:

* :mod:`repro.storage.durability` — the append-only write-ahead
  journal.  Every accepted append batch is written (length-prefixed,
  CRC32-checksummed, optionally fsync'd) *before* the caller is acked,
  so an acked batch is never lost to a crash.
* :mod:`repro.storage.checkpoint` — atomic checkpoints of the speech
  store, written temp → fsync → rename with a checksummed manifest,
  so a crash mid-checkpoint leaves the previous checkpoint intact.
  The maintained table is not checkpointed: the journal already holds
  every appended batch.
* :mod:`repro.storage.recovery` — startup recovery (newest valid
  checkpoint, its table rebuilt from the base table and the journal's
  covered batches, then replay of unapplied journal records through
  the deterministic maintainer) and the :class:`DurabilityCoordinator`
  that the maintenance scheduler threads journal/checkpoint calls
  through at runtime.

On-disk layout under a service's ``data_dir``::

    data_dir/
      journal.wal            append-only record log
      checkpoints/
        ckpt-000000000042/   one checkpoint (name = applied_seq)
          manifest.json      watermark, journal offset, store checksum
          store.snap         compact columnar speech-store snapshot
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
