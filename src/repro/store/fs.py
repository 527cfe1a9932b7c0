"""Every durable file operation of the on-disk protocol (order: :mod:`repro.storage`).

Each call goes through this module's ``os`` attribute, so a test can
substitute a recording or failing ``os`` for these functions alone.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator


def temp_files(directory: Path) -> list[Path]:
    """The temp files of :func:`atomic_write` that any process left in ``directory``."""
    return [p for p in directory.iterdir() if p.name.startswith(".") and ".tmp-" in p.name]


@contextmanager
def atomic_write(path: Path, *chunks: bytes) -> Iterator[None]:
    """Make ``chunks`` the content of ``path`` (parents created) at once, durably.

    The ``with`` body runs once the temp file is durable, before the
    rename; a failure there or earlier removes the temp file and
    propagates.  The temp name carries the pid, so a temp file a killed
    process left names its writer, and two processes writing into one
    directory never write through each other's temp file.
    """
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    make_directories(path.parent)
    try:
        with _open(tmp, os.O_TRUNC) as handle:
            for chunk in chunks:
                append(handle, chunk)
            sync(handle)
        yield
        os.replace(tmp, path)
    except BaseException:
        remove([tmp])
        raise
    fsync_directory(path.parent)


def open_append(path: Path, size: int | None = None) -> BinaryIO:
    """Open ``path`` for appending, durably created, and cut to ``size`` bytes if longer."""
    make_directories(path.parent)
    created = not path.exists()
    handle = _open(path, os.O_APPEND)
    if size is not None and size < handle.seek(0, os.SEEK_END):
        os.ftruncate(handle.fileno(), size)
        sync(handle)
        handle.seek(size)
    if created:
        fsync_directory(path.parent)
    return handle


def append(handle: BinaryIO, data: bytes) -> None:
    """Write all of ``data``: it survives the process, not yet a power loss."""
    view = memoryview(data)
    while view:
        view = view[os.write(handle.fileno(), view) :]


def sync(handle: BinaryIO) -> None:
    """fsync a file: what was written to it survives a power loss."""
    os.fsync(handle.fileno())


def remove(paths: Iterable[Path]) -> None:
    """Unlink every path; one already gone is skipped, any other error raises."""
    for path in paths:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


def make_directories(path: Path) -> None:
    """Create directory ``path`` and its missing parents, durably.

    Each directory this call creates is made with ``mkdir`` and then its
    parent is fsync'd, so the new entry survives a power loss before
    anything is written inside it.  A directory already there, or made
    meanwhile by another process, is left to whoever made it.
    """
    if os.path.isdir(path):
        return
    make_directories(path.parent)
    try:
        os.mkdir(path)
    except FileExistsError:
        if not os.path.isdir(path):
            raise
        return
    fsync_directory(path.parent)


def fsync_directory(path: Path) -> None:
    """fsync a directory, making the creates, renames and unlinks in it durable."""
    directory = os.open(path, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _open(path: Path, flags: int) -> BinaryIO:
    return open(os.open(path, os.O_WRONLY | os.O_CREAT | flags, 0o666), "wb", buffering=0)
