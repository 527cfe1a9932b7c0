"""Snapshot publishing and mmap-attach at the service level.

Four contracts wire :mod:`repro.store` into the serving tier:

* a service given ``snapshot_dir`` freezes the base store as version 0
  at construction and refreezes after every maintenance swap;
* a published file attaches byte-for-byte: the attached store digests
  identically to the store that was served, and a service on an
  attached store still maintains and refreezes;
* a service restarts its version sequence at 0, so it clears a reused
  directory's snapshots before freezing v0;
* a checkpoint is a manifest naming the published snapshot, so each
  version is compacted once and frozen once.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from pathlib import Path

from repro.api import ServingConfig
from repro.serving import VoiceService
from repro.store import Compaction, SnapshotPublisher, attach
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
        attached = attach(publisher.path_for(1))
        assert attached.snapshot_version == 1
        assert digest(attached) == served_digest


class TestAttachMode:
    def test_attached_service_still_maintains(self, engine, example_table, tmp_path):
        config = ServingConfig(concurrency=2, snapshot_dir=str(tmp_path))

        async def run():
            # Publish v0 from the first service, then run an attached
            # service through an append: the maintained store must build
            # on the thawed snapshot and refreeze as v1.
            async with VoiceService(engine, config):
                pass
            attached_engine = make_engine(example_table)
            attached_engine.swap_store(attach(SnapshotPublisher(tmp_path).path_for(0)))
            service = VoiceService(attached_engine, config)
            assert service.registry.current.version == 0
            async with service:
                service.request_append(append_table(APPEND_ROWS))
                await service.scheduler.quiesce()
                assert service.registry.current.version == 1
                return service.publisher.versions(), service.store_digest()["digest"]

        versions, maintained = asyncio.run(run())
        assert versions == [0, 1]
        assert digest(attach(SnapshotPublisher(tmp_path).path_for(1))) == maintained


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
        assert digest(attach(publisher.path_for(1))) == served
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
