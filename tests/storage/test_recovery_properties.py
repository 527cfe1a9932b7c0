"""Recovered vs uninterrupted, over random runs (model-based).

Hypothesis draws runs of the durable maintenance path and drives
:class:`IncrementalMaintainer`, :class:`DurabilityCoordinator` and a
real :class:`SnapshotPublisher` directly, the way
:class:`MaintenanceScheduler` and :class:`VoiceService` do:

* ``append`` journals a batch (the ack boundary) and queues it;
* ``publish`` runs one job over every queued batch, coalesced in seq
  order, publishes the new version and commits the swap, which
  checkpoints it; the draw may make the publish fail (no file, no
  manifest) or the manifest write fail (a file past the last
  manifest);
* ``drop`` runs a job that fails until its retries are exhausted: the
  maintainer rolls its table back and the seqs are marked dropped;
* ``restart`` crashes and starts again through :func:`recover_engine`,
  then clears the files past the attached version, publishes the
  recovered one and checkpoints it when records were replayed.

Every run ends in a crash; a crash may land mid-write (a torn record
tail).  After each crash, recovery from the newest checkpoint, pure
journal replay, and the live run must agree — the live run's queued
batches applied as the one job a restarted scheduler runs first.  The
store is compared by canonical payload, the table by values and
column types.  Across the whole run, including restarts, no snapshot
is published at a lower version than one before it, and every
``applied`` marker carries a higher version than all before it.
"""

from __future__ import annotations

import tempfile
from functools import cache
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.api.config import ServingConfig
from repro.reliability import faults
from repro.storage.durability import read_journal
from repro.storage.recovery import (
    JOURNAL_NAME,
    DurabilityCoordinator,
    recover_engine,
    recover_state,
)
from repro.store import CompactSpeechStore, SnapshotPublisher
from repro.system.persistence import canonical_store_payload
from repro.system.updates import IncrementalMaintainer

from tests.conftest import REGIONS, SEASONS, build_example_table
from tests.serving.conftest import append_table, make_engine

ROW = st.tuples(
    st.sampled_from(REGIONS),
    st.sampled_from(SEASONS),
    st.sampled_from([5.0, 12.0, 30.0, 55.0]),
)
STEP = st.one_of(
    st.tuples(st.just("append"), st.lists(ROW, min_size=1, max_size=2)),
    st.tuples(st.just("publish"), st.sampled_from(["ok", "ok", "no-publish", "no-manifest"])),
    st.tuples(st.just("drop"), st.none()),
    st.tuples(st.just("restart"), st.booleans()),
)


@cache
def base_engine():
    """The pre-processed engine every recovery starts from (never mutated)."""
    return make_engine(build_example_table())


class LiveRun:
    """One uninterrupted process over a data directory, plus its crashes."""

    def __init__(self, data_dir: Path, journal_fsync: bool = False):
        self.data_dir = data_dir
        self.config = ServingConfig(data_dir=str(data_dir), journal_fsync=journal_fsync)
        base = base_engine()
        self.store = base.store.clone()
        self.maintainer = IncrementalMaintainer(
            base.config, base.table, summarizer=base.summarizer, realizer=base.realizer
        )
        self.durability = DurabilityCoordinator(data_dir, fsync=journal_fsync)
        self.publisher = SnapshotPublisher(data_dir / "snapshots")
        self.published = -1
        self.pending = []
        self.version = 0
        self.publish(self.store)

    def publish(self, store):
        """Publish ``store`` as the current version; never a lower one."""
        assert self.version >= self.published
        self.published = self.version
        return self.publisher.publish(store, self.version)

    def run(self, step) -> None:
        kind, arg = step
        if kind == "append":
            rows = append_table(arg)
            self.pending.append((self.durability.log_append(rows), rows))
        elif kind == "publish" and self.pending:
            seqs, batch = self.take_job()
            self.maintainer.maintain(batch, self.store)
            self.version += 1
            path = None if arg == "no-publish" else self.publish(self.store)
            if arg == "no-manifest":
                faults.FAILPOINTS.configure(["checkpoint.save:times=1"])
            self.durability.commit_applied(seqs, path, self.version)
            faults.FAILPOINTS.clear()
        elif kind == "drop" and self.pending:
            seqs, batch = self.take_job()
            before = self.maintainer.table
            self.maintainer.maintain(batch, self.store.clone())  # the discarded build
            self.maintainer.rollback_table(before)
            self.durability.mark_dropped(seqs)
        elif kind == "restart":
            self.crash(torn=arg)
            engine = make_engine(build_example_table())
            recovered, self.durability = recover_engine(engine, self.config)
            self.version = recovered.store_version
            attached = isinstance(engine.store, CompactSpeechStore)
            self.publisher.clear(after=self.version if attached else self.version - 1)
            path = self.publish(engine.store)
            if recovered.replayed_records:
                assert self.durability.checkpoint_now(path, self.version)

    def take_job(self):
        seqs = tuple(seq for seq, _ in self.pending)
        batch = self.pending[0][1].concat(*(rows for _, rows in self.pending[1:]))
        self.pending = []
        return seqs, batch

    def crash(self, torn: bool) -> None:
        """Die (optionally mid-write), then check both recovery paths."""
        self.durability.close()
        if torn:
            with open(self.data_dir / JOURNAL_NAME, "ab") as handle:
                handle.write(b"\x00\x00\x00\x10torn")
        if self.pending:
            # What the restarted scheduler runs first: one coalesced job.
            _, batch = self.take_job()
            self.maintainer.maintain(batch, self.store)
        expected = canonical_store_payload(self.store)
        markers = [
            entry.record["snapshot_version"]
            for entry in read_journal(self.data_dir / JOURNAL_NAME).records
            if entry.kind == "applied"
        ]
        assert markers == sorted(set(markers)), markers
        for use_checkpoint in (True, False):
            base = base_engine()
            recovered = recover_state(
                self.data_dir,
                base.config,
                base_store=base.store,
                base_table=base.table,
                summarizer=base.summarizer,
                realizer=base.realizer,
                use_checkpoint=use_checkpoint,
            )
            assert canonical_store_payload(recovered.store) == expected, use_checkpoint
            assert recovered.table == self.maintainer.table, use_checkpoint
            assert [column.ctype for column in recovered.table.columns] == [
                column.ctype for column in self.maintainer.table.columns
            ]


def check_run(steps, torn: bool = False) -> None:
    with tempfile.TemporaryDirectory(prefix="recovery-property-") as data_dir:
        live = LiveRun(Path(data_dir))
        for step in steps:
            live.run(step)
        live.crash(torn)


@seed(1729)
@settings(max_examples=60, deadline=None, database=None)
@given(steps=st.lists(STEP, max_size=12), torn=st.booleans())
def test_recovery_paths_reach_the_live_run(steps, torn):
    check_run(steps, torn)


def test_a_restarts_replayed_pass_stays_apart_from_later_batches():
    """Shrunk counterexample: no marker recorded the restart's replay.

    The restart replays seq 1 as one pass; seq 2 arrives afterwards.
    Pure journal replay saw two unmarked batches and coalesced them
    into one pass, which the live run never made.
    """
    check_run(
        [
            ("append", [("East", "Spring", 5.0)]),
            ("restart", False),
            ("append", [("East", "Summer", 5.0)]),
        ]
    )


def test_versions_continue_past_failed_checkpoints():
    """Two swaps published without a manifest, then a restart.

    The restart replays both; numbering it one past the checkpoint (0)
    instead of past the journal's last marker would publish v1 again
    after v2.
    """
    check_run(
        [
            ("append", [("East", "Spring", 5.0)]),
            ("publish", "no-manifest"),
            ("append", [("West", "Fall", 30.0)]),
            ("publish", "no-manifest"),
            ("restart", False),
            ("append", [("East", "Summer", 5.0)]),
            ("publish", "ok"),
        ]
    )
