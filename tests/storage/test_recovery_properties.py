"""Recovered vs uninterrupted, over random runs (model-based).

Hypothesis draws runs of the durable maintenance path and drives
:class:`IncrementalMaintainer` plus :class:`DurabilityCoordinator`
directly, the way :class:`MaintenanceScheduler` does:

* ``append`` journals a batch (the ack boundary) and queues it;
* ``publish`` runs one job over every queued batch, coalesced in seq
  order, and commits the swap (the coordinator checkpoints after every
  ``checkpoint_every_swaps`` swaps); when drawn, a checkpoint is also
  forced right after the swap;
* ``drop`` runs a job that fails until its retries are exhausted: the
  maintainer rolls its table back and the seqs are marked dropped;
* ``restart`` crashes and starts again through :func:`recover_engine`,
  forcing the post-replay checkpoint :class:`VoiceService` writes.

Every run ends in a crash; a crash may land mid-write (a torn record
tail).  After each crash, recovery from the newest checkpoint, pure
journal replay, and the live run must agree — the live run's queued
batches applied as the one job a restarted scheduler runs first.  The
store is compared by canonical payload, the table by values and
column types.
"""

from __future__ import annotations

import tempfile
from functools import cache
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.api.config import ServingConfig
from repro.storage.recovery import (
    JOURNAL_NAME,
    DurabilityCoordinator,
    recover_engine,
    recover_state,
)
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
    st.tuples(st.just("publish"), st.booleans()),
    st.tuples(st.just("drop"), st.none()),
    st.tuples(st.just("restart"), st.booleans()),
)


@cache
def base_engine():
    """The pre-processed engine every recovery starts from (never mutated)."""
    return make_engine(build_example_table())


class LiveRun:
    """One uninterrupted process over a data directory, plus its crashes."""

    def __init__(self, data_dir: Path, every_swaps: int):
        self.data_dir = data_dir
        self.config = ServingConfig(data_dir=str(data_dir), checkpoint_every_swaps=every_swaps)
        base = base_engine()
        self.store = base.store.clone()
        self.maintainer = IncrementalMaintainer(
            base.config, base.table, summarizer=base.summarizer, realizer=base.realizer
        )
        self.durability = DurabilityCoordinator(data_dir, checkpoint_every_swaps=every_swaps)
        self.pending = []
        self.version = 0

    def run(self, step) -> None:
        kind, arg = step
        if kind == "append":
            rows = append_table(arg)
            self.pending.append((self.durability.log_append(rows), rows))
        elif kind == "publish" and self.pending:
            seqs, batch = self.take_job()
            self.maintainer.maintain(batch, self.store)
            self.version += 1
            self.durability.commit_applied(seqs, lambda: self.store, self.version)
            if arg:
                self.durability.checkpoint_now(self.store, self.version)
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
            if recovered.replayed_records:
                self.durability.checkpoint_now(engine.store, store_version=0)
            self.version = 0

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


def check_run(steps, every_swaps: int = 1000, torn: bool = False) -> None:
    with tempfile.TemporaryDirectory(prefix="recovery-property-") as data_dir:
        live = LiveRun(Path(data_dir), every_swaps)
        for step in steps:
            live.run(step)
        live.crash(torn)


@seed(1729)
@settings(max_examples=60, deadline=None, database=None)
@given(
    steps=st.lists(STEP, max_size=12),
    every_swaps=st.sampled_from([1, 2, 3, 1000]),
    torn=st.booleans(),
)
def test_recovery_paths_reach_the_live_run(steps, every_swaps, torn):
    check_run(steps, every_swaps, torn)


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
