"""Startup recovery parity and the runtime durability coordinator."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.reliability import faults
from repro.storage.checkpoint import CheckpointManager
from repro.storage.durability import JournalWriter, read_journal
from repro.api.config import ServingConfig
from repro.storage.recovery import (
    JOURNAL_NAME,
    DurabilityCoordinator,
    recover_engine,
    recover_state,
)
from repro.store import SnapshotPublisher
from repro.system.persistence import canonical_store_payload, store_from_dict
from repro.system.updates import IncrementalMaintainer

from tests.serving.conftest import append_table


def live_run(engine, data_dir, groups, dropped=()):
    """Simulate the scheduler's serialized jobs with a journal.

    Each entry in ``groups`` is a list of batches one maintenance job
    coalesced; the journal gets one ``append`` record per batch (the
    ack boundary) and one ``applied`` marker per job, exactly as
    :class:`MaintenanceScheduler` writes them.  ``dropped`` batches are
    journalled and then marked dropped (retries exhausted) without
    being maintained.  Returns the live store/table the uninterrupted
    process ended with.
    """
    writer = JournalWriter(data_dir / JOURNAL_NAME)
    store = engine.store.clone()
    maintainer = IncrementalMaintainer(
        engine.config,
        engine.table,
        summarizer=engine.summarizer,
        realizer=engine.realizer,
    )
    version = 0
    for group in groups:
        seqs, batch = [], None
        for rows in group:
            seqs.append(writer.log_append(rows))
            batch = rows if batch is None else batch.concat(rows)
        maintainer.maintain(batch, store)
        version += 1
        writer.mark_applied(seqs, snapshot_version=version)
    for rows in dropped:
        seq = writer.log_append(rows)
        writer.mark_dropped([seq])
    writer.close()
    return store, maintainer.table


def checkpoint(data_dir, store, applied_seq, store_version, journal_offset=0):
    """Publish ``store`` as ``store_version`` and checkpoint it there.

    What a durable service does after a swap: the checkpoint is a
    manifest naming the file the publisher froze.
    """
    snapshot = SnapshotPublisher(data_dir / "snapshots").publish(store, store_version)
    return CheckpointManager(data_dir).save(
        snapshot,
        applied_seq=applied_seq,
        store_version=store_version,
        journal_offset=journal_offset,
    )


def maintained(engine, rows):
    """The engine's store after one maintenance pass over ``rows``."""
    store = engine.store.clone()
    IncrementalMaintainer(
        engine.config,
        engine.table,
        summarizer=engine.summarizer,
        realizer=engine.realizer,
    ).maintain(append_table(rows), store)
    return store


def recover(engine, data_dir, **kwargs):
    return recover_state(
        data_dir,
        engine.config,
        base_store=engine.store,
        base_table=engine.table,
        summarizer=engine.summarizer,
        realizer=engine.realizer,
        **kwargs,
    )


BATCH_A = [("East", "Winter", 55.0), ("North", "Summer", 44.0)]
BATCH_B = [("East", "Winter", 5.0), ("West", "Fall", 30.0)]
BATCH_C = [("South", "Spring", 12.0)]


class TestRecoverState:
    def test_empty_data_dir_recovers_base(self, tmp_path, engine):
        recovered = recover(engine, tmp_path)
        assert recovered.replayed_seqs == ()
        assert recovered.next_seq == 1
        assert recovered.checkpoint is None
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            engine.store
        )
        # Nothing to replay: the base store and table come back as
        # they are (replay would maintain a clone, never the base).
        assert recovered.store is engine.store
        assert recovered.table is engine.table

    def test_journal_replay_matches_live_run(self, tmp_path, engine):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)], [append_table(BATCH_B)]],
        )
        recovered = recover(engine, tmp_path)
        assert recovered.replayed_seqs == (1, 2)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )
        assert recovered.table == live_table

    def test_replay_reproduces_job_grouping(self, tmp_path, engine):
        # One job coalesced two batches: replaying them as two passes
        # would diverge, so the applied marker's grouping must be used.
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A), append_table(BATCH_B)]],
        )
        recovered = recover(engine, tmp_path)
        assert recovered.replayed_seqs == (1, 2)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )
        assert recovered.table == live_table

    def test_unapplied_suffix_replayed_as_one_coalesced_pass(self, tmp_path, engine):
        writer = JournalWriter(tmp_path / JOURNAL_NAME)
        writer.log_append(append_table(BATCH_A))
        writer.log_append(append_table(BATCH_B))
        writer.close()
        # What a restarted scheduler would do with both batches pending:
        # one job over their concatenation.
        expected = engine.store.clone()
        maintainer = IncrementalMaintainer(
            engine.config,
            engine.table,
            summarizer=engine.summarizer,
            realizer=engine.realizer,
        )
        maintainer.maintain(
            append_table(BATCH_A).concat(append_table(BATCH_B)), expected
        )

        recovered = recover(engine, tmp_path)
        assert recovered.replayed_seqs == (1, 2)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            expected
        )
        assert recovered.table == maintainer.table

    def test_dropped_seqs_never_replayed(self, tmp_path, engine):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)]],
            dropped=[append_table(BATCH_B)],
        )
        recovered = recover(engine, tmp_path)
        assert recovered.replayed_seqs == (1,)
        assert recovered.dropped_seqs == frozenset({2})
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )
        assert recovered.table == live_table

    def test_checkpoint_skips_covered_prefix(self, tmp_path, engine):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)], [append_table(BATCH_B)]],
        )
        # Checkpoint covering seq 1 only: recovery must replay seq 2.
        partial_store, _ = live_run(
            engine, tmp_path / "partial", groups=[[append_table(BATCH_A)]]
        )
        checkpoint(tmp_path, partial_store, applied_seq=1, store_version=1)
        recovered = recover(engine, tmp_path)
        assert recovered.checkpoint is not None
        assert recovered.replayed_seqs == (2,)
        # Past the version the journal's last marker names.
        assert recovered.store_version == 3
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )
        assert recovered.table == live_table

    def test_verify_paths_agree(self, tmp_path, engine):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)], [append_table(BATCH_B)]],
        )
        checkpoint(tmp_path, live_store, applied_seq=2, store_version=2)
        via_checkpoint = recover(engine, tmp_path)
        via_journal = recover(engine, tmp_path, use_checkpoint=False)
        assert via_checkpoint.replayed_seqs == ()
        # Nothing replayed: the checkpoint's snapshot is the store.
        assert via_checkpoint.store is via_checkpoint.checkpoint.store
        assert via_checkpoint.store_version == 2
        assert via_journal.replayed_seqs == (1, 2)
        assert canonical_store_payload(
            via_checkpoint.store
        ) == canonical_store_payload(via_journal.store)
        # The checkpoint path rebuilt its table from the journal.
        assert via_checkpoint.table == via_journal.table == live_table

    def test_torn_tail_recovers_good_prefix(self, tmp_path, engine):
        live_run(engine, tmp_path, groups=[[append_table(BATCH_A)]])
        partial, partial_table = live_run(
            engine, tmp_path / "oracle", groups=[[append_table(BATCH_A)]]
        )
        path = tmp_path / JOURNAL_NAME
        good = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x10torn")

        recovered = recover(engine, tmp_path)
        assert recovered.scan.truncated_reason is not None
        assert recovered.journal_offset == good
        assert recovered.replayed_seqs == (1,)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            partial
        )
        assert recovered.table == partial_table

    def test_recover_engine_marks_the_replayed_suffix_applied(self, tmp_path, engine):
        writer = JournalWriter(tmp_path / JOURNAL_NAME)
        writer.log_append(append_table(BATCH_A))
        writer.log_append(append_table(BATCH_B))
        writer.close()

        recovered, durability = recover_engine(engine, ServingConfig(data_dir=str(tmp_path)))
        durability.close()
        assert recovered.unmarked_seqs == (1, 2)
        # The restarted process applied both batches in one pass; the
        # marker keeps a later replay from merging them with new ones.
        # It carries the recovered version, not 0.
        assert recovered.store_version == 1
        assert read_journal(tmp_path / JOURNAL_NAME).records[-1].record == {
            "kind": "applied",
            "seqs": [1, 2],
            "snapshot_version": 1,
        }

    def test_recover_replay_failpoint_fires_per_record(self, tmp_path, engine):
        live_run(engine, tmp_path, groups=[[append_table(BATCH_A)]])
        faults.FAILPOINTS.configure(["recover.replay:times=1"])
        with pytest.raises(faults.InjectedFault):
            recover(engine, tmp_path)


class TestTableFromJournal:
    """A checkpoint's table is the base plus the journal's covered batches."""

    def test_checkpoint_past_a_truncated_journal_is_skipped(self, tmp_path, engine):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)], [append_table(BATCH_B)]],
        )
        path = tmp_path / JOURNAL_NAME
        full = read_journal(path)
        checkpoint(tmp_path, live_store, 2, 2, journal_offset=full.good_offset)
        # Tear the last record (seq 2's applied marker): the checkpoint's
        # offset now lies past the journal's longest valid prefix.
        os.truncate(path, full.records[-1].offset + 3)

        recovered = recover(engine, tmp_path)
        assert recovered.scan.truncated_reason is not None
        assert recovered.checkpoint is None
        assert recovered.replayed_seqs == (1, 2)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )
        assert recovered.table == live_table

    def test_dropped_seq_below_the_watermark_never_enters_the_table(
        self, tmp_path, engine
    ):
        writer = JournalWriter(tmp_path / JOURNAL_NAME)
        store = engine.store.clone()
        maintainer = IncrementalMaintainer(
            engine.config,
            engine.table,
            summarizer=engine.summarizer,
            realizer=engine.realizer,
        )
        applied = writer.log_append(append_table(BATCH_A))
        maintainer.maintain(append_table(BATCH_A), store)
        writer.mark_applied([applied], snapshot_version=1)
        writer.mark_dropped([writer.log_append(append_table(BATCH_B))])
        applied = writer.log_append(append_table(BATCH_C))
        maintainer.maintain(append_table(BATCH_C), store)
        writer.mark_applied([applied], snapshot_version=2)
        checkpoint(tmp_path, store, 3, 2, journal_offset=writer.offset)
        writer.close()

        recovered = recover(engine, tmp_path)
        assert recovered.checkpoint is not None
        assert recovered.replayed_seqs == ()
        assert recovered.dropped_seqs == frozenset({2})
        assert recovered.table == maintainer.table
        assert recovered.table.num_rows == engine.table.num_rows + 3
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            store
        )

    def test_checkpoint_syncs_the_journal_before_its_manifest(
        self, tmp_path, engine, monkeypatch
    ):
        coordinator = DurabilityCoordinator(tmp_path)
        snapshot = SnapshotPublisher(tmp_path / "snapshots").publish(engine.store, 1)
        journal_fd = coordinator._journal._file.fileno()
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("journal" if fd == journal_fd else "file")
            real_fsync(fd)

        def replace(src, dst):
            events.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        seq = coordinator.log_append(append_table(BATCH_A))
        coordinator.commit_applied([seq], snapshot, store_version=1)
        coordinator.close()

        assert "journal" in events
        assert events.index("journal") < events.index("ckpt-000000000001.json")
        scan = read_journal(tmp_path / JOURNAL_NAME)
        loaded = CheckpointManager(tmp_path).load_latest(scan)
        assert loaded.journal_offset == scan.good_offset


def store_from_payload(payload: bytes):
    """Rebuild a store from :func:`canonical_store_payload` bytes."""
    return store_from_dict(json.loads(payload))


class TestCanonicalPayloadParity:
    def test_round_trip_is_byte_identical(self, engine):
        payload = canonical_store_payload(engine.store)
        rebuilt, _ = store_from_payload(payload)
        assert canonical_store_payload(rebuilt) == payload

    def test_round_trip_matches_clone_answers(self, engine):
        rebuilt, _ = store_from_payload(canonical_store_payload(engine.store))
        clone = engine.store.clone()
        assert canonical_store_payload(rebuilt) == canonical_store_payload(clone)
        for stored in list(clone)[:5]:
            match = rebuilt.best_match(stored.query)
            assert match is not None and match.exact
            assert match.stored.text == stored.text


class TestDurabilityCoordinator:
    def make(self, tmp_path, **kwargs):
        return DurabilityCoordinator(tmp_path, **kwargs)

    def test_log_append_returns_monotonic_seqs(self, tmp_path):
        coordinator = self.make(tmp_path)
        assert coordinator.log_append(append_table(BATCH_A)) == 1
        assert coordinator.log_append(append_table(BATCH_B)) == 2
        coordinator.close()
        scan = read_journal(tmp_path / JOURNAL_NAME)
        assert scan.next_seq == 3

    def test_every_swap_checkpoints_its_published_snapshot(self, tmp_path, engine):
        coordinator = self.make(tmp_path)
        publisher = SnapshotPublisher(tmp_path / "snapshots")
        for version in (1, 2):
            seq = coordinator.log_append(append_table(BATCH_A))
            snapshot = publisher.publish(engine.store, version)
            coordinator.commit_applied([seq], snapshot, store_version=version)
        stats = coordinator.stats()
        assert stats["checkpoints_written"] == 2
        assert stats["last_checkpoint_seq"] == 2
        coordinator.close()
        scan = read_journal(tmp_path / JOURNAL_NAME)
        loaded = CheckpointManager(tmp_path).load_latest(scan)
        assert (loaded.applied_seq, loaded.store_version) == (2, 2)

    def test_failed_publish_writes_no_manifest(self, tmp_path, engine):
        coordinator = self.make(tmp_path)
        seq = coordinator.log_append(append_table(BATCH_A))
        coordinator.commit_applied([seq], None, store_version=1)
        stats = coordinator.stats()
        assert (stats["checkpoints_written"], stats["checkpoint_failures"]) == (0, 1)
        assert "not published" in coordinator.last_checkpoint_error
        assert CheckpointManager(tmp_path).list_checkpoints() == []
        coordinator.close()
        # The swap is still marked applied: replay keeps its grouping.
        scan = read_journal(tmp_path / JOURNAL_NAME)
        assert scan.records[-1].record["seqs"] == [seq]

    def test_checkpoint_failure_is_isolated_and_surfaced(self, tmp_path, engine):
        coordinator = self.make(tmp_path)
        publisher = SnapshotPublisher(tmp_path / "snapshots")
        faults.FAILPOINTS.configure(["checkpoint.save:times=1"])
        seq = coordinator.log_append(append_table(BATCH_A))
        # Must not raise into the swap path.
        coordinator.commit_applied([seq], publisher.publish(engine.store, 1), store_version=1)
        assert coordinator.stats()["checkpoint_failures"] == 1
        assert "InjectedFault" in coordinator.last_checkpoint_error
        # The journal still covers the batch.
        scan = read_journal(tmp_path / JOURNAL_NAME)
        assert [entry.kind for entry in scan.records] == ["append", "applied"]
        assert scan.records[1].record["seqs"] == [1]
        # The next swap checkpoints cleanly and clears the error.
        seq = coordinator.log_append(append_table(BATCH_B))
        coordinator.commit_applied([seq], publisher.publish(engine.store, 2), store_version=2)
        assert coordinator.last_checkpoint_error is None
        assert coordinator.stats()["checkpoints_written"] == 1
        coordinator.close()

    def test_mark_dropped_advances_watermark(self, tmp_path):
        coordinator = self.make(tmp_path)
        seq = coordinator.log_append(append_table(BATCH_A))
        coordinator.mark_dropped([seq])
        assert coordinator.stats()["applied_seq"] == seq
        coordinator.close()

    def test_resumes_past_torn_tail(self, tmp_path, engine):
        writer = JournalWriter(tmp_path / JOURNAL_NAME)
        writer.log_append(append_table(BATCH_A))
        writer.close()
        with open(tmp_path / JOURNAL_NAME, "ab") as handle:
            handle.write(b"torn-tail-garbage")
        recovered = recover(engine, tmp_path)
        coordinator = self.make(
            tmp_path,
            next_seq=recovered.next_seq,
            truncate_at=recovered.journal_offset,
        )
        assert coordinator.log_append(append_table(BATCH_B)) == 2
        coordinator.close()
        scan = read_journal(tmp_path / JOURNAL_NAME)
        assert scan.truncated_reason is None
        assert [entry.record["seq"] for entry in scan.records] == [1, 2]
