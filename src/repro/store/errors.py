"""Typed failures of the compact snapshot format.

Every way a snapshot file can be unusable maps to one subclass, so
callers (checkpoint recovery, tests) can catch
:class:`SnapshotError` and *know* the file was rejected rather than
silently mis-read: a corrupt snapshot must never produce wrong matches.
"""

from __future__ import annotations


class SnapshotError(Exception):
    """Base class: a compact-store snapshot cannot be attached."""


class SnapshotFormatError(SnapshotError):
    """The file is not a compact-store snapshot (bad magic)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible format version."""


class SnapshotCorruptionError(SnapshotError):
    """The snapshot is damaged: checksum mismatch, truncation, or an
    inconsistent section table."""
