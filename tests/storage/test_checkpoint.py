"""Checkpoint atomicity, validation, and fallback-to-older behaviour."""

from __future__ import annotations

import hashlib
import json
import zlib

import pytest

from repro.reliability import faults
from repro.storage.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointManager,
)
from repro.storage.durability import JournalWriter, read_journal, table_to_payload
from repro.storage.recovery import JOURNAL_NAME
from repro.system.persistence import canonical_store_payload
from repro.cli import _build_engine, build_parser, main
from repro.datasets import load_dataset
from repro.store import (
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOTS_KEPT,
    CompactSpeechStore,
    SnapshotPublisher,
    SnapshotVersionError,
    attach,
    freeze,
    header_crc,
)
from repro.system.speech_store import SpeechStore

from tests.serving.conftest import append_table
from tests.store.test_format import with_format_version
from tests.storage.test_recovery import (
    BATCH_A,
    BATCH_B,
    checkpoint,
    live_run,
    maintained,
    recover,
)


def save_checkpoint(manager, engine, applied_seq, journal_offset=0):
    return checkpoint(
        manager.directory.parent,
        engine.store,
        applied_seq=applied_seq,
        store_version=applied_seq,
        journal_offset=journal_offset,
    )


def snapshot_of(manifest_path):
    return manifest_path.parent / json.loads(manifest_path.read_text())["snapshot"]


@pytest.fixture
def journal(tmp_path):
    """A journal holding seqs 1-9: it backs every checkpoint saved below."""
    writer = JournalWriter(tmp_path / JOURNAL_NAME)
    for _ in range(9):
        writer.log_append(append_table(BATCH_A))
    writer.close()
    return read_journal(tmp_path / JOURNAL_NAME)


def flip_middle_byte(path):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestSaveAndLoad:
    def test_round_trip(self, tmp_path, engine, journal):
        manager = CheckpointManager(tmp_path)
        path = save_checkpoint(manager, engine, applied_seq=7, journal_offset=123)
        assert path.name == "ckpt-000000000007.json"
        # The manifest is the whole checkpoint: no store is written.
        assert [entry.name for entry in manager.directory.iterdir()] == [path.name]

        loaded = CheckpointManager(tmp_path).load_latest(journal)
        assert loaded is not None
        assert loaded.applied_seq == 7
        assert loaded.store_version == 7
        assert loaded.journal_offset == 123
        assert canonical_store_payload(loaded.store) == canonical_store_payload(
            engine.store
        )
        assert not hasattr(loaded, "table")
        # The store is the published snapshot, attached; recovery
        # thaws it only to replay into it.
        assert isinstance(loaded.store, CompactSpeechStore)
        assert loaded.store.snapshot_version == 7

    def test_manifest_names_the_published_snapshot(self, tmp_path, engine):
        path = save_checkpoint(CheckpointManager(tmp_path), engine, applied_seq=1)
        manifest = json.loads(path.read_text())
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION == 4
        assert sorted(manifest) == [
            "applied_seq",
            "format_version",
            "journal_offset",
            "snapshot",
            "snapshot_header_crc32",
            "store_version",
        ]
        published = SnapshotPublisher(tmp_path / "snapshots").path_for(1)
        assert snapshot_of(path).resolve() == published.resolve()
        # The header checksum, read from the 44-byte header alone.
        header = published.read_bytes()[:44]
        assert manifest["snapshot_header_crc32"] == int.from_bytes(header[40:], "little")
        assert manifest["snapshot_header_crc32"] == zlib.crc32(header[:40])

    def test_empty_directory_loads_none(self, tmp_path):
        scan = read_journal(tmp_path / JOURNAL_NAME)
        assert CheckpointManager(tmp_path).load_latest(scan) is None

    def test_newest_valid_wins(self, tmp_path, engine, journal):
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=1)
        save_checkpoint(manager, engine, applied_seq=2)
        assert manager.load_latest(journal).applied_seq == 2

    def test_prune_keeps_as_many_as_the_publisher(self, tmp_path, engine):
        manager = CheckpointManager(tmp_path)
        for seq in range(1, SNAPSHOTS_KEPT + 2):
            save_checkpoint(manager, engine, applied_seq=seq)
        names = [path.name for path in manager.list_checkpoints()]
        assert names == [
            f"ckpt-{seq:012d}.json" for seq in range(2, SNAPSHOTS_KEPT + 2)
        ]
        # Each kept manifest names a version the publisher still holds.
        for path in manager.list_checkpoints():
            assert snapshot_of(path).exists()

    def test_same_watermark_resave_replaces(self, tmp_path, engine, journal):
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=4, journal_offset=10)
        save_checkpoint(manager, engine, applied_seq=4, journal_offset=20)
        loaded = manager.load_latest(journal)
        assert loaded.applied_seq == 4
        assert loaded.journal_offset == 20


class TestBadSnapshots:
    """A manifest whose snapshot cannot be trusted is skipped."""

    def test_corrupt_snapshot_falls_back_to_older(self, tmp_path, engine, journal):
        # The header is intact, so its checksum still matches the
        # manifest; attach() catches the flipped payload byte.
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=1)
        newest = save_checkpoint(manager, engine, applied_seq=2)
        flip_middle_byte(snapshot_of(newest))

        loaded = manager.load_latest(journal)
        assert loaded is not None
        assert loaded.applied_seq == 1

    @pytest.mark.parametrize("version", [1, 2, SNAPSHOT_FORMAT_VERSION + 1])
    def test_snapshot_of_another_format_falls_back_to_older(
        self, tmp_path, engine, journal, version
    ):
        """Older formats (1 predates incremental compaction, 2 scope-major order), and newer."""
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=1)
        newest = save_checkpoint(manager, engine, applied_seq=2)
        snapshot = snapshot_of(newest)
        snapshot.write_bytes(with_format_version(snapshot.read_bytes(), version))
        # Only the format version is wrong: the manifest's checksum matches.
        manifest = json.loads(newest.read_text())
        manifest["snapshot_header_crc32"] = header_crc(snapshot)
        newest.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotVersionError):
            attach(snapshot)

        assert manager.load_latest(journal).applied_seq == 1

    def test_replaced_snapshot_fails_the_header_checksum(
        self, tmp_path, engine, journal
    ):
        # A valid snapshot of another store under the same name.
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=1)
        newest = save_checkpoint(manager, engine, applied_seq=2)
        freeze(maintained(engine, BATCH_B), snapshot_of(newest), snapshot_version=2)

        assert manager.load_latest(journal).applied_seq == 1

    @pytest.mark.parametrize("older", [False, True], ids=["alone", "with-older"])
    def test_missing_or_pruned_snapshot(self, tmp_path, engine, journal, older):
        manager = CheckpointManager(tmp_path)
        if older:
            save_checkpoint(manager, engine, applied_seq=1)
        newest = save_checkpoint(manager, engine, applied_seq=2)
        snapshot_of(newest).unlink()
        loaded = manager.load_latest(journal)
        assert (loaded.applied_seq if loaded else None) == (1 if older else None)

    def test_recovery_past_bad_snapshots_is_a_pure_replay(self, tmp_path, engine):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)], [append_table(BATCH_B)]],
        )
        offset = read_journal(tmp_path / JOURNAL_NAME).good_offset
        first = checkpoint(tmp_path, maintained(engine, BATCH_A), 1, 1, offset)
        second = checkpoint(tmp_path, live_store, 2, 2, offset)
        snapshot_of(first).unlink()
        flip_middle_byte(snapshot_of(second))

        recovered = recover(engine, tmp_path)
        assert recovered.checkpoint is None
        assert recovered.replayed_seqs == (1, 2)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )
        assert recovered.table == live_table


class TestCorruptCheckpoints:
    def test_journal_without_the_covered_appends_invalidates(self, tmp_path, engine):
        # The table a checkpoint stands for lives in the journal: a
        # journal missing a covered append record cannot rebuild it.
        live_run(engine, tmp_path, groups=[[append_table(BATCH_A)]])
        manager = CheckpointManager(tmp_path)
        scan = read_journal(tmp_path / JOURNAL_NAME)
        save_checkpoint(manager, engine, applied_seq=1, journal_offset=scan.good_offset)
        save_checkpoint(manager, engine, applied_seq=2, journal_offset=scan.good_offset)
        assert manager.load_latest(scan).applied_seq == 1

        # A dropped marker accounts for seq 2: the newer one is valid again.
        writer = JournalWriter(tmp_path / JOURNAL_NAME, next_seq=2)
        writer.mark_dropped([2])
        writer.close()
        assert manager.load_latest(read_journal(tmp_path / JOURNAL_NAME)).applied_seq == 2

    def test_format_version_skew_invalidates(self, tmp_path, engine, journal):
        manager = CheckpointManager(tmp_path)
        newest = save_checkpoint(manager, engine, applied_seq=2)
        manifest = json.loads(newest.read_text())
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION
        manifest["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        newest.write_text(json.dumps(manifest))
        assert manager.load_latest(journal) is None

    def test_unreadable_manifest_invalidates(self, tmp_path, engine, journal):
        manager = CheckpointManager(tmp_path)
        newest = save_checkpoint(manager, engine, applied_seq=2)
        newest.write_text("not json{")
        assert manager.load_latest(journal) is None

    def test_tmp_leftovers_ignored_and_swept(self, tmp_path, engine, journal):
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=1)
        leftover = manager.directory / ".tmp-ckpt-000000000009.json"
        leftover.write_bytes(b"half-written")

        assert manager.load_latest(journal).applied_seq == 1
        save_checkpoint(manager, engine, applied_seq=2)
        assert not leftover.exists()


class TestJsonCheckpointsAreSkipped:
    """Format-1 checkpoints stored the speech store as canonical JSON."""

    def write_json_checkpoint(self, data_dir, store, table, applied_seq):
        path = data_dir / "checkpoints" / f"ckpt-{applied_seq:012d}"
        path.mkdir(parents=True)
        store_payload = canonical_store_payload(store)
        table_payload = json.dumps(
            table_to_payload(table), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        (path / "store.json").write_bytes(store_payload)
        (path / "table.json").write_bytes(table_payload)
        manifest = {
            "format_version": 1,
            "applied_seq": applied_seq,
            "store_version": applied_seq,
            "journal_offset": 0,
            "store_format": "json",
            "store_crc32": zlib.crc32(store_payload),
            "table_crc32": zlib.crc32(table_payload),
        }
        (path / "manifest.json").write_text(json.dumps(manifest, indent=2))

    def test_recovery_replays_the_whole_journal_past_a_json_checkpoint(
        self, tmp_path, engine
    ):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)], [append_table(BATCH_B)]],
        )
        # An intact format-1 checkpoint covering both seqs: a reader of
        # that format would replay nothing.
        self.write_json_checkpoint(tmp_path, live_store, live_table, applied_seq=2)

        scan = read_journal(tmp_path / JOURNAL_NAME)
        assert CheckpointManager(tmp_path).load_latest(scan) is None
        recovered = recover(engine, tmp_path)
        assert recovered.checkpoint is None
        assert recovered.replayed_seqs == (1, 2)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )
        assert recovered.table == live_table


class TestTableCheckpointsAreSkipped:
    """Format-2 checkpoints also stored the maintained table (``table.json``)."""

    def write_table_checkpoint(self, data_dir, store, table, applied_seq):
        path = data_dir / "checkpoints" / f"ckpt-{applied_seq:012d}"
        path.mkdir(parents=True)
        freeze(store, path / "store.snap", snapshot_version=applied_seq)
        table_payload = json.dumps(
            table_to_payload(table), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        (path / "table.json").write_bytes(table_payload)
        manifest = {
            "format_version": 2,
            "applied_seq": applied_seq,
            "store_version": applied_seq,
            "journal_offset": read_journal(data_dir / JOURNAL_NAME).good_offset,
            "store_crc32": zlib.crc32((path / "store.snap").read_bytes()),
            "table_crc32": zlib.crc32(table_payload),
        }
        (path / "manifest.json").write_text(json.dumps(manifest, indent=2))

    def test_recovery_replays_the_whole_journal_past_a_table_checkpoint(
        self, tmp_path, engine
    ):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)], [append_table(BATCH_B)]],
        )
        # Intact in its own format and covering both seqs.
        self.write_table_checkpoint(tmp_path, live_store, live_table, applied_seq=2)

        scan = read_journal(tmp_path / JOURNAL_NAME)
        assert CheckpointManager(tmp_path).load_latest(scan) is None
        recovered = recover(engine, tmp_path)
        assert recovered.checkpoint is None
        assert recovered.replayed_seqs == (1, 2)
        assert hashlib.sha256(
            canonical_store_payload(recovered.store)
        ).hexdigest() == hashlib.sha256(canonical_store_payload(live_store)).hexdigest()
        assert recovered.table == live_table


class TestStoreCopyCheckpointsAreSkipped:
    """Format-3 checkpoints were directories holding their own ``store.snap``."""

    def test_recovery_replays_the_whole_journal_past_a_store_copy(
        self, tmp_path, engine
    ):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)], [append_table(BATCH_B)]],
        )
        path = tmp_path / "checkpoints" / f"ckpt-{2:012d}"
        path.mkdir(parents=True)
        freeze(live_store, path / "store.snap", snapshot_version=2)
        manifest = {
            "format_version": 3,
            "applied_seq": 2,
            "store_version": 2,
            "journal_offset": read_journal(tmp_path / JOURNAL_NAME).good_offset,
            "store_crc32": zlib.crc32((path / "store.snap").read_bytes()),
        }
        (path / "manifest.json").write_text(json.dumps(manifest, indent=2))

        recovered = recover(engine, tmp_path)
        assert recovered.checkpoint is None
        assert recovered.replayed_seqs == (1, 2)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )


class TestVersionTwoSnapshotsAreSkipped:
    """Format-2 snapshots list a multi-target store target-major.

    Pre-processing now stores speeches scope-major, so a version-2 file
    holds the same speeches as a fresh replay in another order.  It must
    be skipped by its version (recovery replays the journal), never
    attached and compared with a fresh replay.
    """

    def as_version_two(self, manifest_path, store):
        """Replace the manifest's snapshot by ``store`` frozen as format 2.

        The manifest's header checksum is updated, so that the format
        version is the only thing wrong with the checkpoint.
        """
        snapshot = snapshot_of(manifest_path)
        freeze(store, snapshot, snapshot_version=1)
        snapshot.write_bytes(with_format_version(snapshot.read_bytes(), 2))
        manifest = json.loads(manifest_path.read_text())
        manifest["snapshot_header_crc32"] = header_crc(snapshot)
        manifest_path.write_text(json.dumps(manifest))
        return snapshot

    def test_recovery_replays_the_journal_past_version_two_snapshots(
        self, tmp_path, engine
    ):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)], [append_table(BATCH_B)]],
        )
        offset = read_journal(tmp_path / JOURNAL_NAME).good_offset
        first = checkpoint(tmp_path, maintained(engine, BATCH_A), 1, 1, offset)
        second = checkpoint(tmp_path, live_store, 2, 2, offset)
        for manifest_path in (first, second):
            snapshot = self.as_version_two(manifest_path, live_store)
            with pytest.raises(SnapshotVersionError):
                attach(snapshot)

        recovered = recover(engine, tmp_path)
        assert recovered.checkpoint is None
        assert recovered.replayed_seqs == (1, 2)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )
        assert recovered.table == live_table

    def test_recover_verify_passes_on_a_target_major_data_dir(self, tmp_path, capsys):
        """``recover --verify`` on a data dir written target-major reports no divergence."""
        argv = ["recover", "--dataset", "flights", "--rows", "120", "--algorithm", "G-B"]
        argv += ["--data-dir", str(tmp_path), "--verify"]
        engine = _build_engine(build_parser().parse_args(argv))
        engine.preprocess()
        targets = engine.config.targets
        assert len(targets) == 2
        batch = load_dataset("flights", num_rows=4, seed=7).table
        live_store, _ = live_run(engine, tmp_path, groups=[[batch]])
        target_major = SpeechStore()
        for stored in sorted(live_store, key=lambda stored: targets.index(stored.query.target)):
            target_major.add(stored)
        assert canonical_store_payload(target_major) != canonical_store_payload(live_store)
        offset = read_journal(tmp_path / JOURNAL_NAME).good_offset
        self.as_version_two(checkpoint(tmp_path, live_store, 1, 1, offset), target_major)

        assert main(argv) == 0
        output = capsys.readouterr().out
        # The version-2 checkpoint was skipped: both paths replayed the journal.
        assert '"checkpoint": null' in output
        assert "verified: checkpoint recovery matches pure journal replay" in output


class TestCheckpointFailpoint:
    def test_save_fault_leaves_previous_checkpoint_authoritative(
        self, tmp_path, engine, journal
    ):
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=1)
        faults.FAILPOINTS.configure(["checkpoint.save:times=1"])
        with pytest.raises(faults.InjectedFault):
            save_checkpoint(manager, engine, applied_seq=2)

        assert manager.load_latest(journal).applied_seq == 1
        # The interrupted save left no tmp file behind (raise mode
        # cleans up; kill mode leaves one that loading ignores anyway).
        assert [p.name for p in manager.directory.iterdir()] == ["ckpt-000000000001.json"]
        # The failpoint is exhausted; the next save succeeds.
        save_checkpoint(manager, engine, applied_seq=2)
        assert manager.load_latest(journal).applied_seq == 2


class TestAppendTableHelper:
    def test_fixture_schema_matches_engine(self, engine):
        batch = append_table([("East", "Winter", 55.0)])
        assert [c.name for c in batch.columns] == [
            c.name for c in engine.table.columns
        ]
