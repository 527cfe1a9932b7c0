"""The on-disk snapshot format: round-trips, and loud failure.

The contract under test is absolute: ``attach`` either yields a store
that answers byte-identically to the one ``freeze`` saw, or raises a
typed :class:`repro.store.SnapshotError` — a damaged file may cost an
error, never a wrong match.  Every byte of the file is covered by one
of the three CRCs, so the corruption property is quantified over *any*
single flipped byte and *any* truncation point.
"""

from __future__ import annotations

import json
import os
import re
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import CheckpointManager
from repro.store import (
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOTS_KEPT,
    SnapshotCorruptionError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotPublisher,
    SnapshotVersionError,
    attach,
    freeze,
    fs,
    snapshot_filename,
)
from repro.store.columnar import SECTION_NAMES
from repro.store.format import HEADER_SIZE, MAGIC
from repro.system.persistence import canonical_store_payload
from repro.system.speech_store import SpeechStore

from tests.store.conftest import queries, stores


def roundtrip(tmp_path, store, version=None):
    path = tmp_path / "store.snap"
    freeze(store, path, snapshot_version=version)
    return path, attach(path)


class TestRoundTrip:
    @given(data=st.data(), store=stores())
    @settings(max_examples=40, deadline=None)
    def test_freeze_attach_is_identity(self, data, store, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("snap")
        _, attached = roundtrip(tmp_path, store)
        assert len(attached) == len(store)
        assert canonical_store_payload(attached) == canonical_store_payload(store)
        if len(store):
            query = data.draw(queries(store))
            assert attached.best_match(query) == store.best_match(query)

    def test_snapshot_version_round_trips(self, tmp_path):
        _, attached = roundtrip(tmp_path, SpeechStore(), version=7)
        assert attached.snapshot_version == 7
        assert attached.meta["speeches"] == 0

    def test_freeze_is_deterministic(self, tmp_path):
        from tests.store.test_columnar import simple_speech

        store = SpeechStore()
        store.add(simple_speech("delay", {}, "overall"))
        store.add(simple_speech("delay", {"region": "East"}, "east"))
        freeze(store, tmp_path / "a.snap")
        freeze(store, tmp_path / "b.snap")
        assert (tmp_path / "a.snap").read_bytes() == (tmp_path / "b.snap").read_bytes()

    def test_freeze_writes_exactly_the_layout_sections(self, frozen_bytes):
        toc_length = int.from_bytes(frozen_bytes[16:24], "little")
        toc = json.loads(frozen_bytes[HEADER_SIZE : HEADER_SIZE + toc_length])
        assert set(toc["sections"]) == SECTION_NAMES

    def test_attach_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            attach(tmp_path / "absent.snap")


@pytest.fixture(scope="module")
def frozen_bytes(tmp_path_factory) -> bytes:
    """One deterministic frozen file's bytes, shared across examples."""
    from tests.store.test_columnar import simple_speech

    store = SpeechStore()
    store.add(simple_speech("delay", {}, "overall"))
    store.add(simple_speech("delay", {"region": "East"}, "east"))
    store.add(simple_speech("cancellation", {"season": 2}, "two"))
    path = tmp_path_factory.mktemp("frozen") / "store.snap"
    freeze(store, path, snapshot_version=3)
    return path.read_bytes()


def with_format_version(blob: bytes, version: int) -> bytes:
    """``blob`` claiming format ``version``, with its header CRC recomputed
    so that the version check, not the checksum, is what fires."""
    blob = bytearray(blob)
    blob[8:12] = version.to_bytes(4, "little")
    blob[40:44] = zlib.crc32(bytes(blob[:40])).to_bytes(4, "little")
    return bytes(blob)


class TestCorruptionMatrix:
    def write(self, tmp_path_factory, blob: bytes):
        path = tmp_path_factory.mktemp("corrupt") / "store.snap"
        path.write_bytes(blob)
        return path

    @given(offset=st.integers(min_value=0))
    @settings(max_examples=120, deadline=None)
    def test_any_flipped_byte_raises_typed_error(
        self, frozen_bytes, tmp_path_factory, offset
    ):
        blob = bytearray(frozen_bytes)
        blob[offset % len(blob)] ^= 0xFF
        with pytest.raises(SnapshotError):
            attach(self.write(tmp_path_factory, bytes(blob)))

    @given(cut=st.integers(min_value=0))
    @settings(max_examples=60, deadline=None)
    def test_any_truncation_raises_typed_error(
        self, frozen_bytes, tmp_path_factory, cut
    ):
        blob = frozen_bytes[: cut % len(frozen_bytes)]
        with pytest.raises(SnapshotError):
            attach(self.write(tmp_path_factory, blob))

    def test_trailing_junk_raises(self, frozen_bytes, tmp_path_factory):
        path = self.write(tmp_path_factory, frozen_bytes + b"junk")
        with pytest.raises(SnapshotCorruptionError):
            attach(path)

    def test_bad_magic_raises_format_error(self, frozen_bytes, tmp_path_factory):
        blob = bytearray(frozen_bytes)
        blob[: len(MAGIC)] = b"NOTASNAP"
        with pytest.raises(SnapshotFormatError):
            attach(self.write(tmp_path_factory, bytes(blob)))

    @pytest.mark.parametrize("version", [1, 2, SNAPSHOT_FORMAT_VERSION + 1])
    def test_version_skew_raises_version_error(self, frozen_bytes, tmp_path_factory, version):
        """Older formats (1 predates incremental compaction, 2 scope-major order), and newer."""
        blob = with_format_version(frozen_bytes, version)
        expected = f"format version {version} (expected {SNAPSHOT_FORMAT_VERSION})"
        with pytest.raises(SnapshotVersionError, match=re.escape(expected)):
            attach(self.write(tmp_path_factory, blob))

    def test_header_size_is_stable(self, frozen_bytes):
        # The corruption tests poke absolute offsets; pin the layout.
        assert HEADER_SIZE == 44
        assert frozen_bytes[: len(MAGIC)] == MAGIC


class TestPublisher:
    def make_store(self, *texts):
        from tests.store.test_columnar import simple_speech

        store = SpeechStore()
        for index, text in enumerate(texts):
            store.add(simple_speech("delay", {"region": text}, text))
        return store

    def test_published_versions_attach(self, tmp_path):
        publisher = SnapshotPublisher(tmp_path)
        assert publisher.publish(self.make_store("a"), 0) is not None
        assert publisher.publish(self.make_store("a", "b"), 1) is not None
        assert publisher.versions() == [0, 1]
        attached = attach(publisher.path_for(1))
        assert attached.snapshot_version == 1
        assert len(attached) == 2

    def test_publish_existing_version_is_noop(self, tmp_path):
        publisher = SnapshotPublisher(tmp_path)
        publisher.publish(self.make_store("a"), 0)
        before = publisher.path_for(0).read_bytes()
        publisher.publish(self.make_store("completely", "different"), 0)
        assert publisher.path_for(0).read_bytes() == before
        assert publisher.published == 1

    @pytest.mark.parametrize("failing", ["write", "fsync", "replace"])
    @pytest.mark.parametrize("writer", ["snapshot", "manifest"])
    def test_failed_publish_leaves_no_temp_file(self, tmp_path, monkeypatch, writer, failing):
        """A failed write, fsync or rename leaves the target as it was, and no temp file."""

        def fail(*args):
            raise OSError("no space left on device")

        publisher = SnapshotPublisher(tmp_path / "snapshots")
        snapshot = publisher.publish(self.make_store("a"), 0)
        manager = CheckpointManager(tmp_path)
        if writer == "manifest":
            target = manager.save(snapshot, applied_seq=1, store_version=0, journal_offset=0)
        else:
            target = snapshot
        before = target.read_bytes()
        monkeypatch.setattr(os, failing, fail)
        with pytest.raises(OSError, match="no space left"):
            if writer == "manifest":
                manager.save(snapshot, applied_seq=1, store_version=7, journal_offset=0)
            else:
                freeze(self.make_store("b"), target)
        # The publisher records a failed freeze and keeps serving.
        assert publisher.publish(self.make_store("b"), 1) is None
        assert "no space left" in publisher.last_error
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert publisher.versions() == [0]
        assert fs.temp_files(target.parent) == []

    def test_an_unlink_failure_fails_clear_and_publish_loudly(self, tmp_path, monkeypatch):
        def fail(path):
            raise PermissionError(f"cannot unlink {path}")

        publisher = SnapshotPublisher(tmp_path)
        for version in range(SNAPSHOTS_KEPT):
            publisher.publish(self.make_store("a"), version)
        monkeypatch.setattr(os, "unlink", fail)
        # A publish that cannot drop an old version fails, recorded.
        assert publisher.publish(self.make_store("b"), SNAPSHOTS_KEPT) is None
        assert "cannot unlink" in publisher.last_error
        # A file clear leaves in place would be served: the start fails.
        with pytest.raises(PermissionError):
            publisher.clear()
        assert publisher.versions() == list(range(SNAPSHOTS_KEPT))

    def test_prune_keeps_newest(self, tmp_path):
        publisher = SnapshotPublisher(tmp_path)
        for version in range(SNAPSHOTS_KEPT + 2):
            publisher.publish(self.make_store(*"abcdefgh"[: version + 1]), version)
        assert publisher.versions() == list(range(2, SNAPSHOTS_KEPT + 2))

    def test_filename_layout(self):
        assert snapshot_filename(7) == "store-v000000000007.snap"
