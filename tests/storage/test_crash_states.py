"""Every crash state of the on-disk protocol, enumerated.

The serving tier makes files durable only through :mod:`repro.store.fs`.
These tests swap that module's ``os`` for a :class:`RecordingOS`, which
runs every call and logs the durable ones: creates, writes, truncates,
fsyncs, renames, unlinks and directory fsyncs.  From the log of a short
durable run, :func:`crash_states` builds every state a power loss can
leave on disk, by the rules of ALICE (Pillai et al., OSDI 2014) and
CrashMonkey (Mohan et al., OSDI 2018):

* the crash lands after any prefix of the log;
* bytes written to a file since its last fsync are kept, dropped, or
  torn at a write (record) boundary or in the middle of a write;
* a create, rename or unlink not followed by an fsync of its directory
  is either applied or not, each independently of the others.

Directories are modelled as durable once made: ``mkdir`` is not one of
the protocol's logged operations.

For each state, :func:`recover_state` must rebuild the live run's store
(canonical payload) and table as of some number of applied appends, or
raise a typed error; it must never serve anything else.  That number
may not fall below the durability promise: with ``journal_fsync``
every append acked before the crash, without it the watermark of the
last checkpoint saved before the crash.  A pure journal replay
(``use_checkpoint=False``, what ``recover --verify`` compares against)
must rebuild the same payload and table, and raise where the journal
is unreadable.  The start that follows must leave no temp file in the
snapshot directory.
"""

from __future__ import annotations

import os
import tempfile
from itertools import product
from pathlib import Path
from typing import Any, NamedTuple

import pytest

from repro.storage import CheckpointManager, DurabilityCoordinator, JournalError
from repro.storage.recovery import recover_state
from repro.store import SnapshotError, SnapshotPublisher, fs
from repro.system.persistence import canonical_store_payload

from tests.storage.test_recovery import BATCH_A
from tests.storage.test_recovery_properties import LiveRun, base_engine
from tests.storage.test_restart import run_service

#: Three appends, two swaps and a restart.  The restart finds a torn
#: record after the third append, heals the journal and replays it.
SCENARIO = [
    ("append", [("East", "Spring", 5.0)]),
    ("publish", "ok"),
    ("append", [("West", "Fall", 30.0)]),
    ("publish", "ok"),
    ("append", [("East", "Summer", 55.0)]),
    ("restart", True),
]


class Op(NamedTuple):
    """One logged operation; ``path`` is relative to the data directory.

    ``arg`` is the data of a write, the size of a truncate, the target
    path of a rename, or the seq of an ``ack`` or ``checkpoint`` mark.
    """

    kind: str
    path: str = ""
    node: int | None = None
    arg: Any = None


class RecordingOS:
    """``os`` for :mod:`repro.store.fs`: runs every call and logs the durable ones.

    The log holds creates, writes, truncates, fsyncs, directory fsyncs
    (``fsync_dir``), renames and unlinks as :class:`Op` entries.  File
    data belongs to a node, numbered in creation order, so a rename
    carries the data it renames.
    """

    def __init__(self, root: Path):
        self.root = root
        self.log: list[Op] = []
        self._nodes: dict[str, int] = {}
        self._fds: dict[int, tuple[str, int | None]] = {}
        self._created = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def mark(self, kind: str, seq: int) -> None:
        self.log.append(Op(kind, arg=seq))

    def _relative(self, path) -> str:
        relative = os.path.relpath(os.path.abspath(path), self.root)
        return "" if relative == "." else relative

    def open(self, path, flags, mode=0o777):
        relative = self._relative(path)
        existed = os.path.exists(path)
        fd = os.open(path, flags, mode)
        if os.path.isdir(path):
            self._fds[fd] = (relative, None)
            return fd
        if not existed:
            self._nodes[relative] = self._created
            self._created += 1
            self.log.append(Op("create", relative, self._nodes[relative]))
        elif flags & os.O_TRUNC:
            self.log.append(Op("truncate", relative, self._nodes[relative], 0))
        self._fds[fd] = (relative, self._nodes[relative])
        return fd

    def write(self, fd, data):
        written = os.write(fd, data)
        self.log.append(Op("write", *self._fds[fd], bytes(data[:written])))
        return written

    def ftruncate(self, fd, size):
        os.ftruncate(fd, size)
        self.log.append(Op("truncate", *self._fds[fd], size))

    def fsync(self, fd):
        os.fsync(fd)
        path, node = self._fds[fd]
        self.log.append(Op("fsync" if node is not None else "fsync_dir", path, node))

    def replace(self, source, target):
        os.replace(source, target)
        source, target = self._relative(source), self._relative(target)
        self._nodes[target] = self._nodes.pop(source)
        self.log.append(Op("rename", source, self._nodes[target], target))

    def unlink(self, path):
        os.unlink(path)
        relative = self._relative(path)
        self.log.append(Op("unlink", relative, self._nodes.pop(relative)))


# ----------------------------------------------------------------------
# Crash states
# ----------------------------------------------------------------------
def _contents(ops: list[Op], synced: int) -> set[bytes]:
    """A file's possible contents: its fsync'd ops, then any prefix of the rest, maybe torn."""
    content = b""
    for op in ops[:synced]:
        content = _apply(content, op)
    options = {content}
    for op in ops[synced:]:
        if op.kind == "write" and len(op.arg) > 1:
            options.add(content + op.arg[: len(op.arg) // 2])
        content = _apply(content, op)
        options.add(content)
    return options


def _apply(content: bytes, op: Op) -> bytes:
    return content + op.arg if op.kind == "write" else content[: op.arg]


def _entries(ops: list[Op], synced: int) -> list[dict[str, int]]:
    """A directory's possible entries: its fsync'd ops, plus any subset of the rest."""
    volatile = ops[synced:]
    found: list[dict[str, int]] = []
    for applied in product((False, True), repeat=len(volatile)):
        entries: dict[str, int] = {}
        for op in ops[:synced] + [op for op, keep in zip(volatile, applied) if keep]:
            if entries.get(op.path) == op.node:
                del entries[op.path]  # an unlink, or a rename's source
            if op.kind == "create":
                entries[op.path] = op.node
            elif op.kind == "rename":
                entries[op.arg] = op.node
        if entries not in found:
            found.append(entries)
    return found


def crash_states(log: list[Op]):
    """Yield ``(acked, checkpointed, files)`` for every crash state of ``log``.

    ``acked`` is the highest seq acked and ``checkpointed`` the highest
    checkpoint watermark saved before the crash; ``files`` maps each
    path (relative to the data directory) to its content.
    """
    for end in range(len(log) + 1):
        prefix = log[:end]
        acked = max((op.arg for op in prefix if op.kind == "ack"), default=0)
        checkpointed = max((op.arg for op in prefix if op.kind == "checkpoint"), default=0)
        data: dict[int, list[Op]] = {}
        synced: dict[int, int] = {}
        directory_ops: dict[str, list[Op]] = {}
        directory_synced: dict[str, int] = {}
        for op in prefix:
            if op.kind in ("write", "truncate"):
                data.setdefault(op.node, []).append(op)
            elif op.kind == "fsync":
                synced[op.node] = len(data.get(op.node, ()))
            elif op.kind in ("create", "rename", "unlink"):
                directory_ops.setdefault(os.path.dirname(op.path), []).append(op)
            elif op.kind == "fsync_dir":
                directory_synced[op.path] = len(directory_ops.get(op.path, ()))
        listings = [
            _entries(ops, directory_synced.get(directory, 0))
            for directory, ops in directory_ops.items()
        ]
        for listing in product(*listings):
            nodes = {path: node for entries in listing for path, node in entries.items()}
            options = [
                sorted(_contents(data.get(node, []), synced.get(node, 0)))
                for node in nodes.values()
            ]
            for contents in product(*options):
                yield acked, checkpointed, dict(zip(nodes, contents))


# ----------------------------------------------------------------------
# The recorded run
# ----------------------------------------------------------------------
def record(data_dir: Path, monkeypatch, steps, journal_fsync: bool, marks: bool = True):
    """Run ``steps`` on a :class:`LiveRun` under a :class:`RecordingOS`.

    Returns the recorder and the live (store payload, table) after each
    step that left no append pending, starting with the base state.
    """
    recorder = RecordingOS(data_dir)
    monkeypatch.setattr(fs, "os", recorder)
    if marks:
        log_append, save = DurabilityCoordinator.log_append, CheckpointManager.save

        def acked_log_append(self, rows):
            seq = log_append(self, rows)
            recorder.mark("ack", seq)
            return seq

        def marked_save(self, snapshot, **kwargs):
            path = save(self, snapshot, **kwargs)
            recorder.mark("checkpoint", kwargs["applied_seq"])
            return path

        monkeypatch.setattr(DurabilityCoordinator, "log_append", acked_log_append)
        monkeypatch.setattr(CheckpointManager, "save", marked_save)
    live = LiveRun(data_dir, journal_fsync=journal_fsync)
    states = [(canonical_store_payload(live.store), live.maintainer.table)]
    for step in steps:
        live.run(step)
        if step[0] != "append" and not live.pending:
            states.append((canonical_store_payload(live.store), live.maintainer.table))
    live.durability.close()
    monkeypatch.undo()
    return recorder, states


def recovered_appends(files: dict[str, bytes], states) -> int | str:
    """How many appends recovery from ``files`` rebuilt, or its typed error's name."""
    base = base_engine()
    with tempfile.TemporaryDirectory(prefix="crash-state-") as directory:
        root = Path(directory)
        for sub in ("snapshots", "checkpoints"):
            (root / sub).mkdir()
        for path, content in files.items():
            (root / path).write_bytes(content)

        def recover(use_checkpoint: bool):
            return recover_state(
                root,
                base.config,
                base_store=base.store,
                base_table=base.table,
                summarizer=base.summarizer,
                realizer=base.realizer,
                use_checkpoint=use_checkpoint,
            )

        try:
            recovered = recover(use_checkpoint=True)
        except JournalError as exc:
            # The journal is read before any checkpoint: replay fails too.
            with pytest.raises(JournalError):
                recover(use_checkpoint=False)
            return type(exc).__name__
        except SnapshotError as exc:
            return type(exc).__name__
        payload = canonical_store_payload(recovered.store)
        replayed = recover(use_checkpoint=False)
        assert canonical_store_payload(replayed.store) == payload, sorted(files)
        assert replayed.table == recovered.table, sorted(files)
        # The start that follows clears the snapshot directory, and with
        # it the temp file of a freeze the crash cut short.
        publisher = SnapshotPublisher(root / "snapshots")
        publisher.clear(after=recovered.store_version)
        assert fs.temp_files(publisher.directory) == [], sorted(files)
    for appends, (expected, table) in enumerate(states):
        if payload == expected and recovered.table == table:
            return appends
    raise AssertionError(f"recovery served a state the live run never had: {sorted(files)}")


@pytest.mark.parametrize(
    "journal_fsync, count", [(False, 441), (True, 216)], ids=["flush", "fsync"]
)
def test_every_crash_state_recovers_a_promised_state(tmp_path, monkeypatch, journal_fsync, count):
    recorder, states = record(tmp_path, monkeypatch, SCENARIO, journal_fsync)
    assert len(states) == 4  # the base, two swaps, the restart's replay
    outcomes: dict[tuple, int | str] = {}
    checked = 0
    for acked, checkpointed, files in crash_states(recorder.log):
        key = tuple(sorted(files.items()))
        if key not in outcomes:
            outcomes[key] = recovered_appends(files, states)
        promised = acked if journal_fsync else checkpointed
        outcome = outcomes[key]
        assert isinstance(outcome, str) or outcome >= promised, (outcome, promised, list(files))
        checked += 1
    errors = sorted(outcome for outcome in outcomes.values() if isinstance(outcome, str))
    print(f"{checked} crash states, {len(outcomes)} distinct on disk, typed errors: {errors}")
    assert checked == count


def role(path: str) -> str:
    """What a logged file is to the protocol: journal, snapshot, manifest, or a temp file."""
    directory, name = os.path.split(path)
    if not directory:
        return "journal"
    kind = {"snapshots": "snapshot", "checkpoints": "manifest"}[directory]
    return f"{kind} temp" if name.startswith(".") else kind


def test_the_operations_of_one_durable_swap(tmp_path, monkeypatch):
    """One append and one swap, flush-only: the bytes and fsyncs a swap costs.

    A change to the protocol changes this list, and must update it on purpose.
    """
    steps = [("append", [("East", "Spring", 5.0)]), ("publish", "ok")]
    recorder, _ = record(tmp_path, monkeypatch, steps, journal_fsync=False, marks=False)
    log = recorder.log
    start = next(i for i, op in enumerate(log) if op.kind == "write" and op.path == "journal.wal")
    operations = []
    for op in log[start:]:
        if op.kind == "fsync_dir":
            operations.append((op.kind, f"{op.path or 'data'} dir", None))
        elif op.kind == "rename":
            operations.append((op.kind, f"{role(op.path)} -> {role(op.arg)}", None))
        else:
            size = len(op.arg) if op.kind == "write" else op.arg
            operations.append((op.kind, role(op.path), size))
    assert operations == [
        ("write", "journal", 243),  # the append record, acked after this
        ("create", "snapshot temp", None),
        ("write", "snapshot temp", 44),  # header
        ("write", "snapshot temp", 1945),  # section table
        ("write", "snapshot temp", 3),  # padding
        ("write", "snapshot temp", 2376),  # sections
        ("fsync", "snapshot temp", None),
        ("rename", "snapshot temp -> snapshot", None),
        ("fsync_dir", "snapshots dir", None),
        ("write", "journal", 58),  # the applied marker
        ("fsync", "journal", None),  # the journal is durable before the manifest
        ("fsync_dir", "data dir", None),  # the first manifest made checkpoints/
        ("create", "manifest temp", None),
        ("write", "manifest temp", 186),  # its header CRC has one more digit at format 3
        ("fsync", "manifest temp", None),
        ("rename", "manifest temp -> manifest", None),
        ("fsync_dir", "checkpoints dir", None),
    ]


class MkdirRecordingOS(RecordingOS):
    """A :class:`RecordingOS` that also logs each ``mkdir`` (outside the enumerated model)."""

    def mkdir(self, path, mode=0o777):
        os.mkdir(path, mode)
        self.log.append(Op("mkdir", self._relative(path)))


def test_a_fresh_nested_data_dir_is_durable_before_the_first_ack(tmp_path, monkeypatch):
    """Every directory a durable service creates has its parent fsync'd.

    Those it creates at start (the data dir, its missing parents and
    ``snapshots/``) before it acks the first append; ``checkpoints/``
    before its first manifest is written in it.
    """
    recorder = MkdirRecordingOS(tmp_path)
    monkeypatch.setattr(fs, "os", recorder)
    log_append = DurabilityCoordinator.log_append

    def acked_log_append(self, rows):
        seq = log_append(self, rows)
        recorder.mark("ack", seq)
        return seq

    monkeypatch.setattr(DurabilityCoordinator, "log_append", acked_log_append)
    run_service(tmp_path / "deploy" / "state", appends=[BATCH_A])
    monkeypatch.undo()

    log = recorder.log
    ack = next(i for i, op in enumerate(log) if op.kind == "ack")
    made = {op.path: i for i, op in enumerate(log) if op.kind == "mkdir"}
    assert set(made) == {
        "deploy",
        "deploy/state",
        "deploy/state/snapshots",
        "deploy/state/checkpoints",
    }
    for path, i in made.items():
        parent = os.path.dirname(path)
        synced = next(j for j, op in enumerate(log[i:], i) if op == Op("fsync_dir", parent))
        inside = next(
            j for j, op in enumerate(log) if op.kind == "create" and op.path.startswith(path + "/")
        )
        assert synced < inside, path
        if i < ack:
            assert synced < ack, path
    assert made["deploy/state"] < ack
