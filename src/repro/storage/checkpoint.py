"""Atomic, checksummed checkpoints of the serving store.

A checkpoint bounds recovery time: instead of replaying the whole
journal through the maintainer, startup loads the newest valid
checkpoint and replays only the records past its ``applied_seq``
watermark.

Each checkpoint is a directory named by its watermark
(``ckpt-000000000042``) holding two files:

* ``store.snap`` — the speech store in the checksummed columnar
  snapshot format of :mod:`repro.store`, validated twice on load
  (manifest CRC plus the format's own header/section checksums) and
  thawed to a mutable store for journal replay.  The serving tier
  hands :meth:`CheckpointManager.save` the snapshot registry's
  compaction of the version (the one a snapshot publish freezes too),
  so saving writes that file without compacting the store again.
* ``manifest.json`` — the watermark (``applied_seq``), the snapshot
  version that produced the state, the journal byte offset at save
  time, the format version, and the CRC32 checksum of ``store.snap``.

The maintained table is not written: recovery rebuilds it from the
journal, so the caller fsyncs the journal up to ``journal_offset``
before saving, and loading skips a checkpoint the journal scan it is
given cannot rebuild the table for.  Older formats fail the
version check and are skipped: format 1 held a JSON ``store.json``,
format 2 a ``table.json``.

Atomicity: the directory is written as ``.tmp-ckpt-*`` first, every
file fsync'd, then renamed into place (one atomic metadata operation
on POSIX) and the parent directory fsync'd.  A crash mid-save leaves a
``.tmp-`` directory that loading ignores and the next save sweeps.
Loading validates the manifest and the checksums and silently falls
back to the next-older checkpoint on any mismatch — a corrupt or
version-skewed checkpoint costs replay time, never correctness.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.reliability import faults
from repro.storage.durability import JournalScan
from repro.store import CompactSpeechStore, attach, freeze
from repro.system.speech_store import SpeechStore

#: Manifest format marker; a mismatch invalidates the checkpoint.
CHECKPOINT_FORMAT_VERSION = 3

_PREFIX = "ckpt-"
_TMP_PREFIX = ".tmp-"
_STORE_FILE = "store.snap"


class CheckpointError(Exception):
    """Raised when a checkpoint cannot be written."""


@dataclass(frozen=True)
class LoadedCheckpoint:
    """A validated checkpoint, decoded and ready to recover from."""

    store: SpeechStore
    applied_seq: int
    store_version: int
    journal_offset: int
    path: Path


class CheckpointManager:
    """Writes and loads checkpoints under ``root/checkpoints``.

    Parameters
    ----------
    root:
        The service's data directory (the manager owns its
        ``checkpoints/`` subdirectory).
    keep:
        Checkpoints retained after each save; older ones are deleted.
    """

    def __init__(self, root: str | Path, keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self._dir = Path(root) / "checkpoints"
        self._keep = int(keep)

    @property
    def directory(self) -> Path:
        return self._dir

    def list_checkpoints(self) -> list[Path]:
        """Checkpoint directories, oldest first (tmp leftovers excluded)."""
        if not self._dir.is_dir():
            return []
        return sorted(
            entry
            for entry in self._dir.iterdir()
            if entry.is_dir() and entry.name.startswith(_PREFIX)
        )

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(
        self,
        store: SpeechStore | CompactSpeechStore,
        applied_seq: int,
        store_version: int,
        journal_offset: int,
    ) -> Path:
        """Atomically persist one checkpoint; returns its directory.

        A :class:`CompactSpeechStore` is written as it is; a mutable
        store is compacted first.  The caller must have made the
        journal durable up to ``journal_offset``: recovery rebuilds the
        checkpoint's table from those bytes.

        The ``checkpoint.save`` failpoint fires after the temporary
        files are written but before the rename — a killing rule
        leaves only the ignorable ``.tmp-`` directory behind, a
        raising rule surfaces as a save failure the coordinator
        records (the previous checkpoint stays authoritative either
        way).
        """
        self._dir.mkdir(parents=True, exist_ok=True)
        name = f"{_PREFIX}{int(applied_seq):012d}"
        final = self._dir / name
        tmp = self._dir / f"{_TMP_PREFIX}{name}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        try:
            freeze(store, tmp / _STORE_FILE, snapshot_version=int(store_version))
            store_payload = (tmp / _STORE_FILE).read_bytes()
            manifest = {
                "format_version": CHECKPOINT_FORMAT_VERSION,
                "applied_seq": int(applied_seq),
                "store_version": int(store_version),
                "journal_offset": int(journal_offset),
                "store_crc32": zlib.crc32(store_payload),
            }
            self._write_file(
                tmp / "manifest.json",
                json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
            )
            faults.FAILPOINTS.inject(faults.CHECKPOINT_SAVE)
            if final.exists():
                # Same watermark already checkpointed (e.g. a forced
                # post-recovery checkpoint); replace it atomically-ish
                # by removing first — the older one is redundant.
                shutil.rmtree(final)
            os.replace(tmp, final)
        except Exception as exc:
            shutil.rmtree(tmp, ignore_errors=True)
            if isinstance(exc, faults.InjectedFault):
                raise
            raise CheckpointError(f"checkpoint save to {final} failed: {exc}") from exc
        self._fsync_dir(self._dir)
        self._prune()
        return final

    @staticmethod
    def _write_file(path: Path, payload: bytes) -> None:
        with open(path, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())

    @staticmethod
    def _fsync_dir(path: Path) -> None:
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _prune(self) -> None:
        """Drop all but the newest ``keep`` checkpoints and tmp leftovers."""
        checkpoints = self.list_checkpoints()
        for stale in checkpoints[: max(0, len(checkpoints) - self._keep)]:
            shutil.rmtree(stale, ignore_errors=True)
        if self._dir.is_dir():
            for entry in self._dir.iterdir():
                if entry.is_dir() and entry.name.startswith(_TMP_PREFIX):
                    shutil.rmtree(entry, ignore_errors=True)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load_latest(self, journal: JournalScan) -> LoadedCheckpoint | None:
        """The newest checkpoint that passes validation, or None.

        Invalid checkpoints (unreadable manifest, format-version skew —
        every format-1 and format-2 checkpoint included — checksum
        mismatch, undecodable payloads, and one the ``journal`` scan
        recovery replays from cannot rebuild the table for) are skipped
        in favour of the next-older one — recovery degrades to more
        journal replay, never to corrupt state.
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
            manifest = json.loads((path / "manifest.json").read_text())
            if manifest["format_version"] != CHECKPOINT_FORMAT_VERSION:
                return None
            applied_seq = int(manifest["applied_seq"])
            journal_offset = int(manifest["journal_offset"])
            if journal_offset > good_offset or applied_seq > rebuildable_seq:
                return None
            store_payload = (path / _STORE_FILE).read_bytes()
            if zlib.crc32(store_payload) != int(manifest["store_crc32"]):
                return None
            # attach() re-verifies the format's own checksums; thaw to a
            # mutable store so journal replay can build on it.
            return LoadedCheckpoint(
                store=attach(path / _STORE_FILE).clone(),
                applied_seq=applied_seq,
                store_version=int(manifest["store_version"]),
                journal_offset=journal_offset,
                path=path,
            )
        except Exception:
            # Any read or decode failure (manifest included) means this
            # checkpoint is unusable; the caller falls back to an older one.
            return None
