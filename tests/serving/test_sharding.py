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
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ServingConfig, VoiceRequest
from repro.api.envelopes import ResponseKind
from repro.serving import ConsistentHashRing, ShardManager, VoiceService
from repro.serving.sharding import shard_indices_for

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
        owners = shard_indices_for(ring, keys)
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
        small = ConsistentHashRing(shards, vnodes=8)
        assert small.owner(key) == ConsistentHashRing(shards, vnodes=8).owner(key)

    def test_no_healthy_shards_raises(self):
        ring = ConsistentHashRing(2)
        with pytest.raises(RuntimeError):
            ring.route("session", [])


APPEND_ROWS = [("East", "Winter", 55.0), ("North", "Summer", 44.0)]


class TestShardedServing:
    """Spawns real shard processes — kept to two tests to bound runtime."""

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
                assert manager.respawn_total == 1
                # The session keeps answering after the respawn.
                again = await manager.submit(request)
                assert again.kind is ResponseKind.SPEECH
                assert again.text == first.text
                summary = await manager.metrics_summary()
                assert summary["router"]["respawns"] == 1
                assert summary["router"]["healthy_shards"] == 2

        asyncio.run(asyncio.wait_for(scenario(), timeout=180))

    def test_append_barrier_leaves_no_stale_snapshot(self):
        engine = make_engine(build_example_table())
        config = ServingConfig(concurrency=2, shards=2)

        async def scenario():
            async with ShardManager(engine, config) as manager:
                before = await manager.submit(VoiceRequest(text="delays for East in Winter"))
                batch = manager.build_append_table(
                    [dict(zip(("region", "season", "delay"), row)) for row in APPEND_ROWS]
                )
                await manager.request_append(batch)
                # The barrier has already returned, so *right now* every
                # shard must serve the new version with identical bytes.
                assert manager.version == 1
                digests = await manager.store_digest()
                assert digests["consistent"], digests
                after = await manager.submit(VoiceRequest(text="delays for East in Winter"))
                assert after.text != before.text
                return set(digests["digests"].values())

        shard_digests = asyncio.run(asyncio.wait_for(scenario(), timeout=180))

        # Byte-parity oracle: a single-process service consuming the
        # same batch must reach the exact same store.
        async def reference():
            service = VoiceService(make_engine(build_example_table()))
            async with service:
                service.request_append(append_table(APPEND_ROWS))
                await service.scheduler.quiesce()
                return service.store_digest()["digest"]

        assert shard_digests == {asyncio.run(reference())}

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
        """The tentpole contract of attach-mode spawning, end to end.

        With ``snapshot_dir`` set the shards mmap the frozen base store
        instead of unpickling a private copy (the spawn template must
        not contain the store), post-swap digests match a
        single-process service byte-for-byte, and a SIGKILLed shard
        respawns from the newest frozen version, replaying only the
        append-log suffix past it.
        """
        import os
        import pickle
        import signal

        engine = make_engine(build_example_table())
        config = ServingConfig(
            concurrency=2, shards=2, snapshot_dir=str(tmp_path / "snapshots")
        )

        async def reference():
            service = VoiceService(make_engine(build_example_table()))
            async with service:
                service.request_append(append_table(APPEND_ROWS))
                await service.scheduler.quiesce()
                return service.store_digest()["digest"]

        async def scenario(ref_digest):
            async with ShardManager(engine, config) as manager:
                stats = manager.spawn_stats()
                assert stats["mode"] == "attach"
                assert stats["snapshot_version"] == 0
                # The spawn template must be store-free: a pickled full
                # engine would dwarf it.
                assert stats["template_bytes"] < len(pickle.dumps(engine)) / 2
                assert len(stats["spawn_seconds"]) == 2

                digests = await manager.store_digest()
                assert digests["consistent"], digests

                batch = manager.build_append_table(
                    [
                        dict(zip(("region", "season", "delay"), row))
                        for row in APPEND_ROWS
                    ]
                )
                await manager.request_append(batch)
                digests = await manager.store_digest()
                assert digests["consistent"], digests
                assert set(digests["digests"].values()) == {ref_digest}
                # Every shard refroze the swapped store as version 1.
                assert 1 in manager.publisher.versions()

                # Kill one shard: the respawn must attach the newest
                # frozen version and still reach digest parity.
                os.kill(manager.shard_pids()[0], signal.SIGKILL)

                async def until_respawned():
                    while (
                        manager.respawn_total < 1
                        or manager.health()["status"] != "ok"
                    ):
                        await asyncio.sleep(0.05)

                await asyncio.wait_for(until_respawned(), timeout=60)
                digests = await manager.store_digest()
                assert digests["consistent"], digests
                assert set(digests["digests"].values()) == {ref_digest}
                assert manager.spawn_stats()["snapshot_version"] == 1

        ref_digest = asyncio.run(reference())
        asyncio.run(asyncio.wait_for(scenario(ref_digest), timeout=180))
