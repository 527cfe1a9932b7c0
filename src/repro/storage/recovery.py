"""Startup recovery and the runtime durability coordinator.

Recovery rebuilds the serving store a crashed process lost:

1. Scan the journal to its longest valid prefix (torn tails healed).
2. Attach the snapshot the newest *valid* checkpoint names (corrupt
   or pruned ones, and ones the journal cannot rebuild the table for,
   are skipped for older ones); absent any, start from the
   pre-processed base store.
3. Rebuild its table with one concat of the base table and the
   undropped ``append`` batches up to its ``applied_seq`` watermark,
   in seq order — the serial scheduler's order.
4. Replay every undropped ``append`` record past the watermark
   through :class:`IncrementalMaintainer.maintain`, into a mutable
   clone of the attached store (only when there is such a record).

Replay must reproduce the original run's **job grouping**, not just
its record order: a maintenance pass over one coalesced batch is not
byte-identical to two passes over its halves (each pass re-summarizes
only the queries its own rows touch, against the table as of that
pass).  The journal's ``applied`` markers record exactly the seq
groups each successful job maintained together, so replay applies one
pass per marker group, in marker order, and then one final coalesced
pass over the unapplied suffix (seqs with no marker — batches the
crashed process had accepted but not yet applied, which is also
precisely the single coalesced job a restarted scheduler would run
for them).  :func:`recover_engine` writes an ``applied`` marker for
that final pass before the restarted process accepts anything, so a
later replay keeps it apart from the batches accepted after the
restart.  With that grouping, deterministic maintenance makes the
replayed store byte-identical (canonical payload) to the store the
original serialized jobs produced — the parity the
``recover --verify`` CLI subcommand and the crash tests check.

Note the watermark, not the ``applied`` markers, is the replay
*cursor*: a record applied after the last checkpoint updated only
in-memory state that died with the process, so it is replayed
regardless of its marker — the marker contributes its grouping, not
an exemption.

:class:`DurabilityCoordinator` is the runtime half: it owns the
:class:`JournalWriter` and :class:`CheckpointManager` for a data
directory and gives the maintenance scheduler three hooks —
``log_append`` (before ack), ``commit_applied`` (after a snapshot
swap and its publish: writes the version's checkpoint manifest),
``mark_dropped`` (retries exhausted).  Checkpoint failures (a failed
publish included) are counted and surfaced through ``stats()`` /
service health, never raised into the swap path: the journal alone is
sufficient for correctness, a missed checkpoint only costs replay
time.  :func:`recover_engine` joins the two halves into the start-up
step of a durable service.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.relational.table import Table
from repro.reliability import faults
from repro.storage.checkpoint import CheckpointManager, LoadedCheckpoint
from repro.storage.durability import (
    JournalScan,
    JournalWriter,
    read_journal,
    table_from_payload,
)
from repro.store import CompactSpeechStore
from repro.system.config import SummarizationConfig
from repro.system.speech_store import SpeechStore
from repro.system.updates import IncrementalMaintainer

if TYPE_CHECKING:
    from repro.api.config import ServingConfig
    from repro.system.engine import VoiceQueryEngine

#: Journal file name inside a data directory.
JOURNAL_NAME = "journal.wal"


@dataclass(frozen=True)
class RecoveredState:
    """What :func:`recover_state` rebuilt from a data directory."""

    store: SpeechStore | CompactSpeechStore
    table: Table
    store_version: int
    applied_seq: int
    next_seq: int
    journal_offset: int
    replayed_seqs: tuple[int, ...]
    unmarked_seqs: tuple[int, ...]
    dropped_seqs: frozenset[int]
    checkpoint: LoadedCheckpoint | None
    scan: JournalScan

    @property
    def replayed_records(self) -> int:
        return len(self.replayed_seqs)

    def summary(self) -> dict:
        """JSON-friendly recovery report (for the CLI and logs)."""
        return {
            "checkpoint": str(self.checkpoint.path) if self.checkpoint else None,
            "checkpoint_applied_seq": (
                self.checkpoint.applied_seq if self.checkpoint else 0
            ),
            "journal_records": len(self.scan.records),
            "journal_bytes": self.scan.good_offset,
            "journal_truncated": self.scan.truncated_reason,
            "replayed_records": self.replayed_records,
            "dropped_seqs": sorted(self.dropped_seqs),
            "applied_seq": self.applied_seq,
            "store_version": self.store_version,
            "next_seq": self.next_seq,
            "speeches": len(self.store),
            "table_rows": self.table.num_rows,
        }


def recover_state(
    data_dir: str | Path,
    config: SummarizationConfig,
    base_store: SpeechStore,
    base_table: Table,
    summarizer=None,
    realizer=None,
    use_checkpoint: bool = True,
) -> RecoveredState:
    """Rebuild serving state from ``data_dir`` (checkpoint + journal).

    ``base_store`` / ``base_table`` are the pre-processed engine state
    used when no (valid) checkpoint exists; the base store is never
    mutated (replay maintains a clone).  ``summarizer`` / ``realizer`` must match the ones
    the engine maintains with, or replay diverges from the
    uninterrupted run.  ``use_checkpoint=False`` forces a pure journal
    replay from the base — the independent recovery path
    ``recover --verify`` compares against the checkpoint path.

    The recovered store is the checkpoint's attached snapshot (or the
    base store) when nothing past the watermark is replayed, else a
    mutable clone of it the replay maintained.  Its ``store_version``
    is the checkpoint's version (0 without one) or, when records were
    replayed, one past both that and every version the journal's
    ``applied`` markers name.  An empty or missing data directory
    recovers to the base state (a first boot), so callers need no
    existence checks.
    """
    data_dir = Path(data_dir)
    scan = read_journal(data_dir / JOURNAL_NAME)
    checkpoint = CheckpointManager(data_dir).load_latest(scan) if use_checkpoint else None
    store = checkpoint.store if checkpoint is not None else base_store
    watermark = checkpoint.applied_seq if checkpoint is not None else 0
    dropped = scan.dropped_seqs()
    covered: list[Table] = []
    appends: dict[int, Table] = {}
    groups: list[list[int]] = []
    marked_version = 0
    for entry in scan.records:
        if entry.kind == "append":
            seq = int(entry.record["seq"])
            if seq in dropped:
                continue
            rows = table_from_payload(entry.record["table"])
            if seq > watermark:
                appends[seq] = rows
            else:
                covered.append(rows)
        elif entry.kind == "applied":
            marked_version = max(marked_version, int(entry.record.get("snapshot_version", 0)))
            group = [
                int(seq)
                for seq in entry.record.get("seqs", ())
                if int(seq) > watermark and int(seq) not in dropped
            ]
            if group:
                groups.append(group)
    grouped = {seq for group in groups for seq in group}
    suffix = sorted(seq for seq in appends if seq not in grouped)
    if suffix:
        groups.append(suffix)
    # Journal records are written in seq order, so ``covered`` is too.
    table = base_table.concat(*covered)
    maintainer = IncrementalMaintainer(
        config, table, summarizer=summarizer, realizer=realizer
    )
    if appends:
        store = store.clone()
    replayed: list[int] = []
    for group in groups:
        # One pass per original job (see module docstring): coalesce
        # the group's batches in seq order, exactly as the scheduler's
        # job did, so deterministic maintenance reproduces its bytes.
        batch = []
        for seq in sorted(group):
            if seq not in appends:
                continue  # marker for a record lost to a torn tail
            faults.FAILPOINTS.inject(faults.RECOVER_REPLAY)
            batch.append(appends[seq])
            replayed.append(seq)
        if batch:
            maintainer.maintain(batch[0].concat(*batch[1:]), store)
    replayed.sort()
    store_version = checkpoint.store_version if checkpoint is not None else 0
    if replayed:
        # Past every version the dead process reached, so versions
        # never go backwards even when its last checkpoints failed.
        store_version = max(store_version, marked_version) + 1
    return RecoveredState(
        store=store,
        table=maintainer.table,
        store_version=store_version,
        applied_seq=replayed[-1] if replayed else watermark,
        next_seq=scan.next_seq,
        journal_offset=scan.good_offset,
        replayed_seqs=tuple(replayed),
        unmarked_seqs=tuple(suffix),
        dropped_seqs=dropped,
        checkpoint=checkpoint,
        scan=scan,
    )


def recover_engine(
    engine: VoiceQueryEngine, config: ServingConfig
) -> tuple[RecoveredState, DurabilityCoordinator]:
    """Recover ``config.data_dir`` into ``engine`` and reopen its journal.

    The start-up step of a durable service: arms ``config.failpoints`` so recovery-boundary
    sites (``recover.replay``) fire during the replay, runs
    :func:`recover_state` from the engine's pre-processed state, makes
    the engine adopt the recovered store and table, and returns a
    :class:`DurabilityCoordinator` whose journal resumes past the
    longest valid prefix, with the replay's final coalesced pass
    marked applied at the recovered store version.
    """
    if config.failpoints:
        faults.FAILPOINTS.ensure(config.failpoints, seed=config.failpoint_seed)
    recovered = recover_state(
        config.data_dir,
        engine.config,
        base_store=engine.store,
        base_table=engine.table,
        summarizer=engine.summarizer,
        realizer=engine.realizer,
    )
    engine.swap_store(recovered.store)
    if recovered.table is not engine.table:
        engine.adopt_table(recovered.table)
    durability = DurabilityCoordinator(
        config.data_dir,
        fsync=config.journal_fsync,
        next_seq=recovered.next_seq,
        truncate_at=recovered.journal_offset,
        applied_seq=recovered.applied_seq,
        checkpoint_seq=recovered.checkpoint.applied_seq if recovered.checkpoint else 0,
    )
    if recovered.unmarked_seqs:
        # Replay applied these batches as one pass no marker records;
        # without one, a later pure replay would coalesce them with the
        # batches this process accepts next.
        durability.mark_applied(recovered.unmarked_seqs, store_version=recovered.store_version)
    return recovered, durability


class DurabilityCoordinator:
    """Threads journal writes and checkpoints through the scheduler.

    Construction is cheap and does no recovery — pass the values a
    prior :func:`recover_state` produced (``next_seq``,
    ``journal_offset`` as ``truncate_at``, ``applied_seq``, and the
    loaded checkpoint's watermark as ``checkpoint_seq``) so the
    journal resumes exactly past its longest valid prefix.

    Thread model: ``log_append`` and ``mark_dropped`` run on the event
    loop (small, flushed writes); ``commit_applied`` and
    ``checkpoint_now`` run on the maintenance executor thread (a
    checkpoint fsyncs the journal and writes one manifest naming the
    version's published snapshot).  A single lock serialises all
    journal and checkpoint state.
    """

    def __init__(
        self,
        data_dir: str | Path,
        fsync: bool = False,
        next_seq: int = 1,
        truncate_at: int | None = None,
        applied_seq: int = 0,
        checkpoint_seq: int = 0,
    ):
        self._data_dir = Path(data_dir)
        self._lock = threading.Lock()
        self._journal = JournalWriter(
            self._data_dir / JOURNAL_NAME,
            fsync=fsync,
            next_seq=next_seq,
            truncate_at=truncate_at,
        )
        self._checkpoints = CheckpointManager(self._data_dir)
        self._applied_seq = int(applied_seq)
        self._checkpoints_written = 0
        self._checkpoint_failures = 0
        self._last_checkpoint_seq = int(checkpoint_seq)
        self._last_checkpoint_error: str | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------
    def log_append(self, new_rows: Table) -> int:
        """Journal an accepted batch *before* the caller acks; its seq."""
        with self._lock:
            return self._journal.log_append(new_rows)

    def commit_applied(
        self, seqs: Sequence[int], snapshot: Path | None, store_version: int
    ) -> None:
        """Record a committed swap and checkpoint its version.

        Runs on the maintenance executor thread after the snapshot
        swap published.  ``snapshot`` is the file the publish froze
        for ``store_version``, or None when that publish failed — then
        no manifest is written, the failure is counted, and the
        previous checkpoint stays authoritative.
        """
        with self._lock:
            self._journal.mark_applied(seqs, store_version)
            if seqs:
                self._applied_seq = max(self._applied_seq, max(int(s) for s in seqs))
            self._checkpoint(snapshot, store_version)

    def mark_applied(self, seqs: Sequence[int], store_version: int) -> None:
        """Record an applied group without checkpointing.

        For the replay of a restart, which the service checkpoints once
        it published the recovered version.  The marker preserves
        replay's job grouping; a missing checkpoint only costs recovery
        time — replay covers the journal past the last one.
        """
        with self._lock:
            self._journal.mark_applied(seqs, store_version)
            if seqs:
                self._applied_seq = max(self._applied_seq, max(int(s) for s in seqs))

    def mark_dropped(self, seqs: Sequence[int]) -> None:
        """Record seqs whose rows the scheduler permanently gave up on."""
        with self._lock:
            self._journal.mark_dropped(seqs)
            if seqs:
                self._applied_seq = max(self._applied_seq, max(int(s) for s in seqs))

    def checkpoint_now(self, snapshot: Path | None, store_version: int) -> bool:
        """Checkpoint ``store_version``'s published ``snapshot`` now."""
        with self._lock:
            return self._checkpoint(snapshot, store_version)

    def _checkpoint(self, snapshot: Path | None, store_version: int) -> bool:
        try:
            if snapshot is None:
                raise RuntimeError(f"snapshot v{store_version} was not published")
            # The checkpoint's table is rebuilt from the journal, so the
            # journal must be durable up to the offset it records.
            self._journal.sync()
            self._checkpoints.save(
                snapshot,
                applied_seq=self._applied_seq,
                store_version=store_version,
                journal_offset=self._journal.offset,
            )
        except Exception as exc:
            # A failed checkpoint is degradation, not data loss — the
            # journal still covers everything.  Count it, surface it
            # through health, keep serving.
            self._checkpoint_failures += 1
            self._last_checkpoint_error = repr(exc)
            return False
        self._checkpoints_written += 1
        self._last_checkpoint_seq = self._applied_seq
        self._last_checkpoint_error = None
        return True

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Durability counters for the service metrics endpoint."""
        with self._lock:
            return {
                "data_dir": str(self._data_dir),
                "fsync": self._journal.fsync,
                "journal_bytes": self._journal.offset,
                "next_seq": self._journal.next_seq,
                "applied_seq": self._applied_seq,
                "checkpoints_written": self._checkpoints_written,
                "checkpoint_failures": self._checkpoint_failures,
                "last_checkpoint_seq": self._last_checkpoint_seq,
                "last_checkpoint_error": self._last_checkpoint_error,
            }

    @property
    def last_checkpoint_error(self) -> str | None:
        return self._last_checkpoint_error

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._journal.close()
                self._closed = True
