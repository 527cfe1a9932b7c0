"""Atomic, checksummed checkpoints: manifests over published snapshots.

A checkpoint bounds recovery time: instead of replaying the whole
journal through the maintainer, startup loads the newest valid
checkpoint and replays only the records past its ``applied_seq``
watermark.

A checkpoint holds no store.  It is one JSON manifest,
``checkpoints/ckpt-000000000042.json`` (named by its watermark), that
names the ``store-v<n>.snap`` file the snapshot publisher already froze
for the version (see :mod:`repro.store.publish`).  The manifest records
the watermark (``applied_seq``), that ``store_version``, the journal
byte offset at save time, the format version, the snapshot's path
(relative to the checkpoint directory) and its header checksum, read
from the file's 44-byte header.  Loading compares that checksum and
then attaches the file, which re-verifies every section — the
checkpoint's store *is* the attached snapshot.

The maintained table is not written either: recovery rebuilds it from
the journal, so the caller fsyncs the journal up to ``journal_offset``
before saving, and loading skips a checkpoint the journal scan it is
given cannot rebuild the table for.  Older formats are skipped: format
1-3 checkpoints were directories holding their own store copy.

The manifest is written by :func:`repro.store.fs.atomic_write` (order:
:mod:`repro.storage`); a crash mid-save leaves a temp file that loading
ignores and the next save sweeps.  Loading falls back to the next-older
checkpoint on any mismatch — an unreadable manifest, format skew, or a
missing, pruned, corrupt or replaced snapshot — so a bad checkpoint
costs replay time, never correctness.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.reliability import faults
from repro.storage.durability import JournalScan
from repro.store import SNAPSHOTS_KEPT, CompactSpeechStore, attach, fs, header_crc

#: Manifest format marker; a mismatch invalidates the checkpoint.
CHECKPOINT_FORMAT_VERSION = 4

_PREFIX = "ckpt-"
_SUFFIX = ".json"


@dataclass(frozen=True)
class LoadedCheckpoint:
    """A validated checkpoint with its snapshot attached."""

    store: CompactSpeechStore
    applied_seq: int
    store_version: int
    journal_offset: int
    path: Path


class CheckpointManager:
    """Writes and loads checkpoint manifests under ``root/checkpoints``.

    The newest :data:`repro.store.SNAPSHOTS_KEPT` manifests are kept,
    as many as the snapshot publisher keeps versions.
    """

    def __init__(self, root: str | Path):
        self._dir = Path(root) / "checkpoints"

    @property
    def directory(self) -> Path:
        return self._dir

    def list_checkpoints(self) -> list[Path]:
        """Checkpoint manifests, oldest first (tmp leftovers excluded)."""
        return sorted(self._dir.glob(f"{_PREFIX}*{_SUFFIX}"))

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(
        self,
        snapshot: str | Path,
        applied_seq: int,
        store_version: int,
        journal_offset: int,
    ) -> Path:
        """Atomically write one manifest naming ``snapshot``; its path.

        ``snapshot`` is the published ``store-v<store_version>.snap``.
        The caller must have made the journal durable up to
        ``journal_offset``: recovery rebuilds the checkpoint's table
        from those bytes.  A failed write raises and leaves the previous
        checkpoint authoritative.  The ``checkpoint.save`` failpoint
        fires once the temp file is durable, before the rename.
        """
        final = self._dir / f"{_PREFIX}{int(applied_seq):012d}{_SUFFIX}"
        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "applied_seq": int(applied_seq),
            "store_version": int(store_version),
            "journal_offset": int(journal_offset),
            "snapshot": os.path.relpath(os.path.abspath(snapshot), self._dir.absolute()),
            "snapshot_header_crc32": header_crc(snapshot),
        }
        # Replaces a manifest of the same watermark atomically.
        with fs.atomic_write(final, json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")):
            faults.FAILPOINTS.inject(faults.CHECKPOINT_SAVE)
        # Drop all but the newest manifests, and temp leftovers.
        fs.remove(self.list_checkpoints()[:-SNAPSHOTS_KEPT] + fs.temp_files(self._dir))
        return final

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load_latest(self, journal: JournalScan) -> LoadedCheckpoint | None:
        """The newest checkpoint that passes validation, or None.

        Invalid checkpoints (unreadable manifest, format-version skew,
        a snapshot that is missing, fails its header checksum or does
        not attach, and one the ``journal`` scan recovery replays from
        cannot rebuild the table for) are skipped in favour of the
        next-older one — recovery degrades to more journal replay,
        never to corrupt state.
        """
        rebuildable = journal.rebuildable_seq()
        for path in reversed(self.list_checkpoints()):
            loaded = self._load_one(path, journal.good_offset, rebuildable)
            if loaded is not None:
                return loaded
        return None

    def _load_one(
        self, path: Path, good_offset: int, rebuildable_seq: int
    ) -> LoadedCheckpoint | None:
        try:
            manifest = json.loads(path.read_text())
            if manifest["format_version"] != CHECKPOINT_FORMAT_VERSION:
                return None
            applied_seq = int(manifest["applied_seq"])
            journal_offset = int(manifest["journal_offset"])
            if journal_offset > good_offset or applied_seq > rebuildable_seq:
                return None
            snapshot = self._dir / manifest["snapshot"]
            if header_crc(snapshot) != int(manifest["snapshot_header_crc32"]):
                return None
            return LoadedCheckpoint(
                store=attach(snapshot),
                applied_seq=applied_seq,
                store_version=int(manifest["store_version"]),
                journal_offset=journal_offset,
                path=path,
            )
        except Exception:
            # Any read or decode failure (manifest included) means this
            # checkpoint is unusable; the caller falls back to an older one.
            return None
