"""A durable service's restart attaches its last checkpointed snapshot.

With ``data_dir`` set, every swap's published ``store-v<n>.snap`` is
named by a checkpoint manifest, and a restart mmap-attaches that
file.  These tests pin what a restart must and must not
do to the snapshot directory:

* an idle restart writes no checkpoint, leaves the manifest alone and
  keeps serving (and numbering from) the checkpointed version;
* a file the dead process published past its last manifest is deleted
  at restart and never attached or served;
* a restart that replays the journal publishes and checkpoints the
  replayed store as the next version, never a lower one;
* a temp file a killed freeze left behind is deleted at restart.
"""

from __future__ import annotations

import asyncio
import hashlib

from repro.api import ServingConfig
from repro.serving import VoiceService
from repro.storage import CheckpointManager, JournalWriter, read_journal
from repro.storage.recovery import JOURNAL_NAME
from repro.store import CompactSpeechStore, SnapshotPublisher, attach, freeze
from repro.system.persistence import canonical_store_payload

from tests.conftest import build_example_table
from tests.serving.conftest import append_table, make_engine
from tests.storage.test_recovery import BATCH_A, BATCH_B, BATCH_C, maintained


def digest(store) -> str:
    return hashlib.sha256(canonical_store_payload(store)).hexdigest()


def run_service(data_dir, appends=()):
    """Start a fresh process's service on ``data_dir``, append, stop.

    Returns what the service saw at start (registry version, store
    kind) and its final digest, version and durability counters.
    """

    async def run():
        config = ServingConfig(concurrency=2, data_dir=str(data_dir))
        async with VoiceService(make_engine(build_example_table()), config) as service:
            started = (
                service.registry.version,
                isinstance(service.registry.current.store, CompactSpeechStore),
            )
            for rows in appends:
                service.request_append(append_table(rows))
                await service.scheduler.quiesce()
            served = service.store_digest()
        return started, served, service.durability.stats()

    return asyncio.run(run())


def manifests(data_dir):
    return {
        path.name: path.read_bytes()
        for path in CheckpointManager(data_dir).list_checkpoints()
    }


def test_idle_restart_writes_no_checkpoint(tmp_path):
    _, first, stats = run_service(tmp_path, appends=[BATCH_A])
    assert stats["checkpoints_written"] == 1
    before = manifests(tmp_path)
    journal_bytes = (tmp_path / JOURNAL_NAME).read_bytes()

    (version, attached), second, stats = run_service(tmp_path)
    # The restart attached v1 and numbers on from it.
    assert (version, attached) == (1, True)
    assert second == first
    assert stats["checkpoints_written"] == stats["checkpoint_failures"] == 0
    assert manifests(tmp_path) == before
    assert (tmp_path / JOURNAL_NAME).read_bytes() == journal_bytes
    assert SnapshotPublisher(tmp_path / "snapshots").versions() == [0, 1]


def test_a_file_published_past_the_last_manifest_is_never_served(tmp_path, engine):
    _, first, _ = run_service(tmp_path, appends=[BATCH_A])
    publisher = SnapshotPublisher(tmp_path / "snapshots")
    # The dead process froze v2 and died before its manifest.
    planted = maintained(engine, BATCH_C)
    freeze(planted, publisher.path_for(2), snapshot_version=2)

    (version, attached), second, _ = run_service(tmp_path)
    assert (version, attached) == (1, True)
    assert second["digest"] == first["digest"] != digest(planted)
    assert publisher.versions() == [0, 1]

    # The next swap publishes its own v2.
    _, third, stats = run_service(tmp_path, appends=[BATCH_B])
    assert third["snapshot_version"] == 2
    assert digest(attach(publisher.path_for(2))) == third["digest"] != digest(planted)
    assert stats["checkpoints_written"] == 1


def test_a_replaying_restart_republishes_past_the_manifest(tmp_path, engine):
    run_service(tmp_path, appends=[BATCH_A])
    publisher = SnapshotPublisher(tmp_path / "snapshots")
    # The dead process accepted seq 2, published a v2 of its own and
    # died before marking it applied.
    scan = read_journal(tmp_path / JOURNAL_NAME)
    writer = JournalWriter(
        tmp_path / JOURNAL_NAME, next_seq=scan.next_seq, truncate_at=scan.good_offset
    )
    writer.log_append(append_table(BATCH_B))
    writer.close()
    planted = maintained(engine, BATCH_C)
    freeze(planted, publisher.path_for(2), snapshot_version=2)

    (version, attached), replayed, stats = run_service(tmp_path)
    assert (version, attached) == (2, False)
    assert stats["checkpoints_written"] == 1
    assert publisher.versions() == [0, 1, 2]
    assert digest(attach(publisher.path_for(2))) == replayed["digest"] != digest(planted)
    # The restart marker carries the recovered version.
    assert read_journal(tmp_path / JOURNAL_NAME).records[-1].record == {
        "kind": "applied",
        "seqs": [2],
        "snapshot_version": 2,
    }

    # ... and the next restart attaches it, replaying nothing.
    (version, attached), again, stats = run_service(tmp_path)
    assert (version, attached) == (2, True)
    assert again == replayed
    assert stats["checkpoints_written"] == 0


def test_a_killed_freezes_temp_file_is_removed_at_restart(tmp_path):
    """A freeze killed between its create and its rename leaves a temp file.

    Every start of the directory's one writer clears it, as it clears
    the dead run's snapshot files: each leftover costs a snapshot of disk.
    """
    run_service(tmp_path, appends=[BATCH_A])
    snapshots = tmp_path / "snapshots"
    leftover = snapshots / ".store-v000000000002.snap.tmp-4242"
    leftover.write_bytes(b"half a snapshot")

    run_service(tmp_path)
    assert sorted(entry.name for entry in snapshots.iterdir()) == [
        "store-v000000000000.snap",
        "store-v000000000001.snap",
    ]
