"""Publishing frozen snapshots into a versioned directory.

The serving stack's unit of store exchange is a *published snapshot*:
``store-v{version}.snap`` files in one directory, one per swap
generation.  The :class:`SnapshotPublisher` is the single owner of that
naming scheme:

* a service's registry freezes its first store at start and refreezes
  the maintained store on every swap.  Freezing is deterministic and
  publishing is skip-if-present (identical bytes, atomic rename).
  What a registry freezes is its compaction of that version, built
  from the previous version's, so a publish costs the speeches the
  append changed plus the file write;
* a service that starts its versions at 0 first deletes the previous
  run's files, and a durable service restarting at its checkpoint's
  version deletes the files past it (:meth:`SnapshotPublisher.clear`)
  — skip-if-present would otherwise keep serving them;
* a durable service's checkpoint is a manifest naming one of these
  files, so checkpoints and snapshots are retained alike
  (:data:`SNAPSHOTS_KEPT`); recovery attaches the file its checkpoint
  names.

Publishing never takes the serving path down: a failed freeze or
unlink is recorded on ``last_error`` and the previous snapshot keeps
serving.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any

from repro.store import fs
from repro.store.format import freeze

_SNAPSHOT_NAME = re.compile(r"^store-v(\d{12})\.snap$")

#: Snapshot versions a publisher keeps, and checkpoint manifests a
#: durable service keeps: the newest manifest then always names a
#: version still on disk.
SNAPSHOTS_KEPT = 4


def snapshot_filename(version: int) -> str:
    """Canonical file name for one snapshot version."""
    return f"store-v{version:012d}.snap"


class SnapshotPublisher:
    """Owns one snapshot directory: freeze in, prune old."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        fs.make_directories(self.directory)
        #: Last publish failure, for observability (never raised into
        #: the serving path).
        self.last_error: str | None = None
        self.published = 0

    def path_for(self, version: int) -> Path:
        return self.directory / snapshot_filename(version)

    def versions(self) -> list[int]:
        """Snapshot versions present, ascending."""
        found = []
        for entry in self.directory.iterdir():
            match = _SNAPSHOT_NAME.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def clear(self, after: int = -1) -> None:
        """Delete the snapshot files newer than ``after`` (default: all), and temp files.

        Only the directory's one writer calls this, at start, so every
        temp file is a killed freeze's.  A failed unlink raises.
        """
        stale = [self.path_for(version) for version in self.versions() if version > after]
        fs.remove(stale + fs.temp_files(self.directory))

    def publish(self, store: Any, version: int) -> Path | None:
        """Freeze ``store`` as ``version``; None when the publish failed.

        Re-publishing an existing version is a no-op: freezing is
        deterministic, so the file on disk already holds these bytes.
        Old versions are dropped first, to make room for this one.
        """
        path = self.path_for(version)
        if path.exists():
            return path
        try:
            fs.remove(self.path_for(v) for v in self.versions()[: 1 - SNAPSHOTS_KEPT])
            freeze(store, path, snapshot_version=version)
        except Exception as exc:  # publishing must never sink the server
            self.last_error = f"publish v{version}: {exc}"
            return None
        self.published += 1
        return path
