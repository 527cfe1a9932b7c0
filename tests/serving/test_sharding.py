"""Sharded serving tier: routing stability, crash recovery, swap barrier.

Three contracts of :class:`repro.serving.sharding.ShardManager`:

* **Routing stability** — the consistent-hash ring is a pure function
  of the key and shard count: the same session always lands on the
  same shard, independently constructed rings agree, and a downed
  shard only moves its own keys (every other key keeps its owner).
* **Crash recovery** — a SIGKILLed shard costs zero requests (the
  router fails over), the supervisor respawns it, health returns to
  ``ok``, and the session keeps answering.
* **Swap barrier** — ``request_append`` returns only after *every*
  shard serves the new snapshot version, and the post-swap stores are
  byte-identical to each other and to a single-process service that
  consumed the same batch (no shard ever serves a stale snapshot).
* **Respawn from a snapshot** — every shard attaches a frozen snapshot;
  a respawned shard attaches the newest intact one, holds the table
  that snapshot was maintained from, and is replayed only the batches
  past it, so later appends keep every store byte-identical.
"""

from __future__ import annotations

import asyncio
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ServingConfig, VoiceRequest
from repro.api.envelopes import ResponseKind
from repro.serving import ConsistentHashRing, ShardManager, VoiceService
from repro.serving import sharding
from repro.serving.sharding import _attach_engine
from repro.system.speech_store import SpeechStore

from tests.conftest import build_example_table
from tests.serving.conftest import append_table, make_engine

KEYS = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=24,
)


class TestConsistentHashRing:
    @given(key=KEYS, shards=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_owner_is_deterministic_across_ring_instances(self, key, shards):
        first = ConsistentHashRing(shards)
        second = ConsistentHashRing(shards)
        owner = first.owner(key)
        assert 0 <= owner < shards
        assert second.owner(key) == owner
        assert first.route(key) == owner

    @given(
        keys=st.lists(KEYS, min_size=1, max_size=30, unique=True),
        shards=st.integers(min_value=2, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_downed_shard_moves_only_its_own_keys(self, keys, shards, data):
        ring = ConsistentHashRing(shards)
        down = data.draw(st.integers(min_value=0, max_value=shards - 1))
        healthy = [index for index in range(shards) if index != down]
        owners = {key: ring.owner(key) for key in keys}
        for key in keys:
            routed = ring.route(key, healthy)
            assert routed in healthy
            if owners[key] != down:
                # Stability: a failure elsewhere never moves this key.
                assert routed == owners[key]
            else:
                # Failover is deterministic, so a session's requests
                # stay together for the whole outage.
                assert ring.route(key, healthy) == routed

    @given(key=KEYS, shards=st.integers(min_value=2, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_vnode_count_does_not_change_determinism(self, key, shards):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sharding, "VNODES_PER_SHARD", 8)
            small = ConsistentHashRing(shards)
            assert small.owner(key) == ConsistentHashRing(shards).owner(key)

    def test_no_healthy_shards_raises(self):
        ring = ConsistentHashRing(2)
        with pytest.raises(RuntimeError):
            ring.route("session", [])


APPEND_ROWS = [("East", "Winter", 55.0), ("North", "Summer", 44.0)]
SECOND_ROWS = [("East", "Winter", 5.0), ("North", "Summer", 90.0)]


def wire_rows(rows: list[tuple]) -> list[dict]:
    return [dict(zip(("region", "season", "delay"), row)) for row in rows]


async def reference_digest(*batches: list[tuple]) -> str:
    """Byte-parity oracle: a single-process service consuming ``batches``."""
    service = VoiceService(make_engine(build_example_table()))
    async with service:
        for rows in batches:
            service.request_append(append_table(rows))
            await service.scheduler.quiesce()
        return service.store_digest()["digest"]


async def until_respawned(manager: ShardManager) -> None:
    while manager.reliability()["shard_respawns"] < 1 or manager.health()["status"] != "ok":
        await asyncio.sleep(0.05)


async def until_published(manager: ShardManager, version: int) -> None:
    # A shard freezes a version just after its swap, so the barrier can
    # return before the file is on disk.
    while version not in manager.publisher.versions():
        await asyncio.sleep(0.02)


class TestAttachEngine:
    """What a (re)spawned shard runs, in process."""

    def test_attached_table_equals_the_maintained_table_after_several_appends(
        self, tmp_path
    ):
        batches = [APPEND_ROWS, SECOND_ROWS, [("South", "Spring", 12.0)]]
        engine = make_engine(build_example_table())
        previous = engine.swap_store(SpeechStore())
        template = pickle.dumps(engine)
        engine.swap_store(previous)

        async def maintain() -> VoiceService:
            service = VoiceService(engine, ServingConfig(snapshot_dir=str(tmp_path)))
            async with service:
                for rows in batches:
                    service.request_append(append_table(rows))
                    await service.scheduler.quiesce()
            return service

        service = asyncio.run(maintain())
        attached = _attach_engine(
            template, str(tmp_path), [wire_rows(rows) for rows in batches]
        )
        assert attached.store.snapshot_version == len(batches)
        # One fold of every covered batch gives the table the live
        # maintainer built one job at a time: values and column types.
        assert attached.table == service.scheduler.table
        assert [column.ctype for column in attached.table.columns] == [
            column.ctype for column in service.scheduler.table.columns
        ]
        assert attached.table.num_rows == engine.table.num_rows


class TestShardedServing:
    """Spawns real shard processes — kept to few tests to bound runtime."""

    def test_crash_failover_respawn_and_session_survival(self):
        engine = make_engine(build_example_table())
        config = ServingConfig(
            concurrency=2, shards=2, failpoints=("shard.crash:times=1",)
        )

        async def scenario():
            async with ShardManager(engine, config) as manager:
                # The first ask trips the failpoint: the routed shard
                # is SIGKILLed before forwarding and the request must
                # fail over without surfacing an error.
                request = VoiceRequest(
                    text="what is the delay in Winter", session_id="s-crash"
                )
                first = await manager.submit(request)
                assert first.kind is ResponseKind.SPEECH
                assert manager.health()["status"] == "degraded"

                async def until_ok():
                    while manager.health()["status"] != "ok":
                        await asyncio.sleep(0.05)

                await asyncio.wait_for(until_ok(), timeout=60)
                assert manager.reliability()["shard_respawns"] == 1
                # The session keeps answering after the respawn.
                again = await manager.submit(request)
                assert again.kind is ResponseKind.SPEECH
                assert again.text == first.text
                summary = await manager.metrics_summary()
                assert summary["router"]["respawns"] == 1
                assert summary["router"]["healthy_shards"] == 2

        asyncio.run(asyncio.wait_for(scenario(), timeout=180))

    def test_append_barrier_leaves_no_stale_snapshot(self):
        """Also the default spawn path: no ``snapshot_dir`` configured.

        The shards still attach a frozen snapshot, from a private
        temporary directory that ``stop()`` removes, and the spawn
        template stays store-free.
        """
        import pickle

        engine = make_engine(build_example_table())
        config = ServingConfig(concurrency=2, shards=2)

        async def scenario():
            async with ShardManager(engine, config) as manager:
                snapshot_dir = manager.publisher.directory
                assert manager.publisher.versions() == [0]
                # The template ships the engine without its speeches:
                # the store travels as the snapshot file instead.
                assert len(pickle.loads(manager._template).store) == 0
                assert manager.spawn_stats()["template_bytes"] < len(pickle.dumps(engine))
                before = await manager.submit(VoiceRequest(text="delays for East in Winter"))
                batch = manager.build_append_table(wire_rows(APPEND_ROWS))
                await manager.request_append(batch)
                # The barrier has already returned, so *right now* every
                # shard must serve the new version with identical bytes.
                assert manager.version == 1
                digests = await manager.store_digest()
                assert digests["consistent"], digests
                after = await manager.submit(VoiceRequest(text="delays for East in Winter"))
                assert after.text != before.text
            assert not snapshot_dir.exists()
            return set(digests["digests"].values())

        shard_digests = asyncio.run(asyncio.wait_for(scenario(), timeout=180))
        assert shard_digests == {asyncio.run(reference_digest(APPEND_ROWS))}

    def test_sessionless_requests_round_robin(self):
        engine = make_engine(build_example_table())
        config = ServingConfig(concurrency=2, shards=2)

        async def scenario():
            async with ShardManager(engine, config) as manager:
                for _ in range(4):
                    response = await manager.submit(
                        VoiceRequest(text="what is the delay in Winter")
                    )
                    assert response.kind is ResponseKind.SPEECH
                summary = await manager.metrics_summary()
                per_shard = summary["shards"]
                # Round-robin spreads session-less load over both shards.
                assert all(
                    per_shard[str(index)]["completed"] >= 1 for index in range(2)
                )
                assert summary["completed"] >= 4

        asyncio.run(asyncio.wait_for(scenario(), timeout=180))

    def test_mmap_attach_mode_digest_parity_and_suffix_catch_up(self, tmp_path):
        """Attach spawning with ``snapshot_dir`` set, end to end.

        Post-swap digests match a single-process service byte-for-byte,
        and a SIGKILLed shard respawns from the newest frozen version
        holding the table that version was maintained from: a later
        append keeps its store identical to every other shard's.
        """
        import os
        import signal

        engine = make_engine(build_example_table())
        config = ServingConfig(concurrency=2, shards=2, snapshot_dir=str(tmp_path / "snapshots"))

        async def scenario(first_digest, second_digest):
            async with ShardManager(engine, config) as manager:
                stats = manager.spawn_stats()
                assert stats["snapshot_version"] == 0
                assert len(stats["spawn_seconds"]) == 2

                digests = await manager.store_digest()
                assert digests["consistent"], digests

                await manager.request_append(manager.build_append_table(wire_rows(APPEND_ROWS)))
                digests = await manager.store_digest()
                assert digests["consistent"], digests
                assert set(digests["digests"].values()) == {first_digest}
                # Every shard refreezes the swapped store as version 1.
                await asyncio.wait_for(until_published(manager, 1), timeout=30)

                # Kill one shard: the respawn must attach the newest
                # frozen version and still reach digest parity.
                os.kill(manager.shard_pids()[0], signal.SIGKILL)
                await asyncio.wait_for(until_respawned(manager), timeout=60)
                digests = await manager.store_digest()
                assert digests["consistent"], digests
                assert set(digests["digests"].values()) == {first_digest}
                assert manager.spawn_stats()["snapshot_version"] == 1

                # The respawned shard maintains this batch on the table
                # v1 was built from (base + batch 1), not the base table.
                await manager.request_append(manager.build_append_table(wire_rows(SECOND_ROWS)))
                digests = await manager.store_digest()
                assert digests["consistent"], digests
                assert set(digests["digests"].values()) == {second_digest}

        first_digest = asyncio.run(reference_digest(APPEND_ROWS))
        second_digest = asyncio.run(reference_digest(APPEND_ROWS, SECOND_ROWS))
        asyncio.run(asyncio.wait_for(scenario(first_digest, second_digest), timeout=180))

    def test_respawn_past_a_corrupt_snapshot_replays_the_log_suffix(self):
        """A corrupt newest snapshot: the respawn attaches the one before.

        A damaged ``store-v1.snap`` (v0's bytes with one byte flipped)
        is on disk before the append that produces v1, so the shards'
        skip-if-present publish keeps it.  ``attach_latest`` skips it
        and attaches v0, the shard reports 0 in its ready handshake, and
        the router replays batch 1 into it before the next append goes
        out.
        """
        import os
        import signal

        engine = make_engine(build_example_table())
        config = ServingConfig(concurrency=2, shards=2)

        async def scenario(second_digest):
            async with ShardManager(engine, config) as manager:
                caught_up = []
                catch_up = manager._catch_up

                async def recording_catch_up(handle, version):
                    caught_up.append(version)
                    await catch_up(handle, version)

                manager._catch_up = recording_catch_up
                damaged = bytearray(manager.publisher.path_for(0).read_bytes())
                damaged[len(damaged) // 2] ^= 0xFF
                manager.publisher.path_for(1).write_bytes(bytes(damaged))
                await manager.request_append(manager.build_append_table(wire_rows(APPEND_ROWS)))

                os.kill(manager.shard_pids()[1], signal.SIGKILL)
                await asyncio.wait_for(until_respawned(manager), timeout=60)
                # The append waits for the catch-up to finish.
                await manager.request_append(manager.build_append_table(wire_rows(SECOND_ROWS)))
                assert caught_up == [0]
                digests = await manager.store_digest()
                assert digests["consistent"], digests
                assert set(digests["digests"].values()) == {second_digest}

        second_digest = asyncio.run(reference_digest(APPEND_ROWS, SECOND_ROWS))
        asyncio.run(asyncio.wait_for(scenario(second_digest), timeout=180))

    def test_respawned_shard_is_routed_to_only_after_its_catch_up(self):
        """A respawn with a pending log suffix answers nothing stale.

        A damaged ``store-v1.snap`` makes the respawned shard attach v0
        while the router is at v1, so it has batch 1 to replay.  Until
        that catch-up ends the shard is not healthy, and every answer
        (session-less round-robin included) comes from v1.  The first
        catch-up fails: the supervisor kills the shard and respawns it
        again.
        """
        import os
        import signal

        engine = make_engine(build_example_table())
        config = ServingConfig(concurrency=2, shards=2)
        question = VoiceRequest(text="delays for East in Winter")

        async def scenario():
            async with ShardManager(engine, config) as manager:
                damaged = bytearray(manager.publisher.path_for(0).read_bytes())
                damaged[len(damaged) // 2] ^= 0xFF
                manager.publisher.path_for(1).write_bytes(bytes(damaged))
                before = (await manager.submit(question)).text
                await manager.request_append(manager.build_append_table(wire_rows(APPEND_ROWS)))
                current = (await manager.submit(question)).text
                assert current != before

                attempts = []
                catch_up = manager._catch_up

                async def observed_catch_up(handle, version):
                    attempts.append((version, handle.healthy))
                    answers = [(await manager.submit(question)).text for _ in range(4)]
                    assert answers == [current] * 4
                    if len(attempts) == 1:
                        raise RuntimeError("injected catch-up failure")
                    await catch_up(handle, version)

                manager._catch_up = observed_catch_up
                os.kill(manager.shard_pids()[1], signal.SIGKILL)
                await asyncio.wait_for(until_respawned(manager), timeout=90)
                assert attempts == [(0, False), (0, False)]
                assert manager.reliability()["shard_respawns"] == 2
                answers = [(await manager.submit(question)).text for _ in range(4)]
                assert answers == [current] * 4
                digests = await manager.store_digest()
                assert digests["consistent"], digests

        asyncio.run(asyncio.wait_for(scenario(), timeout=180))
