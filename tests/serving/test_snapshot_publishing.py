"""Snapshot publishing and mmap-attach at the service level.

Four contracts wire :mod:`repro.store` into the serving tier:

* a service given ``snapshot_dir`` freezes the base store as version 0
  at construction and refreezes after every maintenance swap;
* a service whose engine serves an attached snapshot seeds its registry
  version from the snapshot's version (the barrier shards are polled
  on); the shard-side attach helper folds the appended batches that
  version covers into the engine's table, and fails loudly when nothing
  attaches or the snapshot is newer than the batches;
* both sides meet byte-for-byte: the attached store answers and
  digests identically to the store that was frozen;
* the shard router restarts its version sequence at 0, so it clears a
  reused directory's snapshots before freezing v0 — and so does a
  service that was not started from an attached snapshot;
* a checkpoint is a manifest naming the published snapshot, so each
  version is compacted once and frozen once.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pickle
from pathlib import Path

import pytest

from repro.api import ServingConfig
from repro.serving import ShardManager, VoiceService
from repro.serving.sharding import _attach_engine
from repro.store import (
    CompactSpeechStore,
    Compaction,
    SnapshotError,
    SnapshotPublisher,
    attach,
)
from repro.storage import CheckpointManager
from repro.store import publish as publish_module
from repro.system.persistence import canonical_store_payload
from repro.system.updates import IncrementalMaintainer

from tests.serving.conftest import append_table, make_engine

APPEND_ROWS = [("East", "Winter", 55.0), ("North", "Summer", 44.0)]


def digest(store) -> str:
    return hashlib.sha256(canonical_store_payload(store)).hexdigest()


class TestPublishOnSwap:
    def test_base_and_swap_versions_published(self, engine, tmp_path):
        config = ServingConfig(concurrency=2, snapshot_dir=str(tmp_path))

        async def run():
            async with VoiceService(engine, config) as service:
                assert service.publisher is not None
                assert service.publisher.versions() == [0]
                service.request_append(append_table(APPEND_ROWS))
                await service.scheduler.quiesce()
                return service.store_digest()["digest"]

        served_digest = asyncio.run(run())
        publisher = SnapshotPublisher(tmp_path)
        assert publisher.versions() == [0, 1]
        attached = publisher.attach_latest()
        assert attached.snapshot_version == 1
        assert digest(attached) == served_digest


class TestAttachMode:
    def publish_v1(self, engine, snapshot_dir) -> str:
        """Run a publishing service through one append; its digest."""
        config = ServingConfig(concurrency=2, snapshot_dir=str(snapshot_dir))

        async def publish():
            async with VoiceService(engine, config) as service:
                service.request_append(append_table(APPEND_ROWS))
                await service.scheduler.quiesce()
                return service.store_digest()["digest"]

        return asyncio.run(publish())

    def test_service_starts_at_the_attached_version(self, engine, example_table, tmp_path):
        published = self.publish_v1(engine, tmp_path)

        attached_engine = make_engine(example_table)
        attached_engine.swap_store(SnapshotPublisher(tmp_path).attach_latest())
        config = ServingConfig(concurrency=2, snapshot_dir=str(tmp_path))
        service = VoiceService(attached_engine, config)
        assert isinstance(service.engine.store, CompactSpeechStore)
        assert service.registry.current.version == 1
        assert service.store_digest()["digest"] == published
        # The attached version is already on disk: nothing refrozen.
        assert service.publisher.versions() == [0, 1]
        assert service.publisher.published == 0

    def test_attached_service_still_maintains(self, engine, example_table, tmp_path):
        config = ServingConfig(concurrency=2, snapshot_dir=str(tmp_path))

        async def run():
            # Publish v0 from the first service, then run an attached
            # service through an append: the maintained store must build
            # on the thawed snapshot and refreeze as v1.
            async with VoiceService(engine, config):
                pass
            attached_engine = make_engine(example_table)
            attached_engine.swap_store(SnapshotPublisher(tmp_path).attach_latest())
            service = VoiceService(attached_engine, config)
            assert service.registry.current.version == 0
            async with service:
                service.request_append(append_table(APPEND_ROWS))
                await service.scheduler.quiesce()
                assert service.registry.current.version == 1
                return service.publisher.versions(), service.store_digest()["digest"]

        versions, maintained = asyncio.run(run())
        assert versions == [0, 1]
        assert digest(SnapshotPublisher(tmp_path).attach_latest()) == maintained

    def test_shard_attach_helper_serves_the_newest_snapshot(self, engine, example_table, tmp_path):
        published = self.publish_v1(engine, tmp_path)
        template = pickle.dumps(make_engine(example_table, preprocess=False))
        appended = [append_table(APPEND_ROWS).to_dicts()]

        attached = _attach_engine(template, str(tmp_path), appended)
        assert isinstance(attached.store, CompactSpeechStore)
        assert attached.store.snapshot_version == 1
        assert digest(attached.store) == published
        # The table v1 was maintained from: the base plus batch 1, as
        # the publishing service's engine adopted it after the swap.
        assert attached.table == engine.table
        assert attached.table.num_rows == example_table.num_rows + len(APPEND_ROWS)

    def test_shard_attach_helper_without_snapshots_fails_loudly(self, engine, tmp_path):
        template = pickle.dumps(make_engine(engine.table, preprocess=False))
        with pytest.raises(SnapshotError, match="no snapshot"):
            _attach_engine(template, str(tmp_path), [])

    def test_shard_attach_helper_rejects_a_snapshot_past_the_log(
        self, engine, example_table, tmp_path
    ):
        self.publish_v1(engine, tmp_path)
        template = pickle.dumps(make_engine(example_table, preprocess=False))
        with pytest.raises(SnapshotError, match="newer than the 0 appended"):
            _attach_engine(template, str(tmp_path), [])


def maintained_elsewhere(engine):
    """A store a previous run could have published: the base plus other rows."""
    previous = engine.store.clone()
    IncrementalMaintainer(
        engine.config,
        engine.table,
        summarizer=engine.summarizer,
        realizer=engine.realizer,
    ).maintain(append_table([("South", "Fall", 99.0)]), previous)
    assert digest(previous) != digest(engine.store)
    return previous


class TestReusedSnapshotDir:
    def test_router_clears_a_previous_runs_snapshots(self, engine, tmp_path):
        # A previous run left v0 and v3 frozen from a different store.
        previous = maintained_elsewhere(engine)
        publisher = SnapshotPublisher(tmp_path)
        publisher.publish(previous, 0)
        publisher.publish(previous, 3)
        assert publisher.versions() == [0, 3]

        config = ServingConfig(concurrency=2, shards=2, snapshot_dir=str(tmp_path))
        ShardManager(engine, config)

        assert publisher.versions() == [0]
        assert digest(publisher.attach_latest()) == digest(engine.store)

    def test_service_clears_a_previous_runs_snapshots(self, engine, tmp_path):
        # A previous run left v0 and v1 frozen from a different store;
        # publishing skips versions on disk, so without clearing them
        # this service would leave the stale v1 as the newest snapshot.
        previous = maintained_elsewhere(engine)
        publisher = SnapshotPublisher(tmp_path)
        publisher.publish(previous, 0)
        publisher.publish(previous, 1)
        base = digest(engine.store)
        config = ServingConfig(concurrency=2, snapshot_dir=str(tmp_path))

        async def run():
            async with VoiceService(engine, config) as service:
                service.request_append(append_table(APPEND_ROWS))
                await service.scheduler.quiesce()
                return service.store_digest()["digest"]

        served = asyncio.run(run())
        assert publisher.versions() == [0, 1]
        assert digest(publisher.attach_latest()) == served
        assert digest(attach(publisher.path_for(0))) == base


class TestOneCompactionPerVersion:
    def test_checkpoint_names_the_one_published_file(self, engine, tmp_path, monkeypatch):
        # No snapshot_dir: a durable service publishes under data_dir.
        config = ServingConfig(concurrency=2, data_dir=str(tmp_path))
        compactions, freezes = [], []
        advance = Compaction.advance
        freeze = publish_module.freeze

        def counting_advance(self, store):
            compactions.append(len(store))
            return advance(self, store)

        def counting_freeze(store, path, **kwargs):
            freezes.append(Path(path).name)
            return freeze(store, path, **kwargs)

        monkeypatch.setattr(Compaction, "advance", counting_advance)
        monkeypatch.setattr(publish_module, "freeze", counting_freeze)

        async def run():
            async with VoiceService(engine, config) as service:
                assert len(compactions) == len(freezes) == 1  # v0, the base
                service.request_append(append_table(APPEND_ROWS))
                await service.scheduler.quiesce()
                assert service.durability.stats()["checkpoints_written"] == 1

        asyncio.run(run())
        # Stopping checkpoints nothing new: v1 is already checkpointed.
        assert len(compactions) == 2
        assert freezes == ["store-v000000000000.snap", "store-v000000000001.snap"]
        (checkpoint,) = CheckpointManager(tmp_path).list_checkpoints()
        assert [entry.name for entry in checkpoint.parent.iterdir()] == [checkpoint.name]
        manifest = json.loads(checkpoint.read_text())
        published = SnapshotPublisher(tmp_path / "snapshots").path_for(1)
        assert (checkpoint.parent / manifest["snapshot"]).resolve() == published.resolve()
