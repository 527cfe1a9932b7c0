"""Sharded multi-process serving: N engines behind one asyncio router.

One asyncio :class:`repro.serving.service.VoiceService` process tops
out when the event loop saturates — serving, envelope encoding and
maintenance all contend for a single core.  :class:`ShardManager`
scales horizontally: it spawns ``config.shards`` worker processes
(each owning a full engine + store snapshot behind its own
``VoiceService`` + ``VoiceHttpServer`` on a loopback port) and routes
requests from a lightweight front router.

Routing
-------
Requests carrying a ``session_id`` are routed by **consistent hash**
(:class:`ConsistentHashRing`): the same session always lands on the
same shard, so its repeat-state stays local to one process.
Session-less requests round-robin across healthy shards.  When a
session's owner shard is down, the ring walks to the next healthy
shard — a deterministic fallback, so consecutive requests of one
session keep landing together even mid-outage.

The hot path is a **raw byte relay**: :meth:`ShardManager.relay_ask`
forwards the client's request body bytes to the shard and hands the
shard's response bytes straight back through
:meth:`repro.api.clients.HttpClient.request`.  Each shard has one
:class:`HttpClient` (a keep-alive pool bounded by the shard's
``concurrency + max_queue_depth``), created when the shard reports
ready and closed when it goes down; every other shard call (health,
metrics, digests, sessions, appends) goes through the same client.
The router never decodes or re-encodes the envelope (it only
JSON-parses bodies that mention ``session_id``, to extract the routing
key), so its per-request cost stays far below a shard's and
throughput scales with the shard count.  A
:class:`repro.api.errors.TransportError` (refused, reset, torn or
garbled reply) fails the request over to the next shard; HTTP error
statuses pass through and timeouts never mark a shard down.

Maintenance and durability
--------------------------
The router owns the single source of append truth.  Each
:meth:`request_append` batch is journalled first (when the manager has
a ``data_dir`` — one write-ahead journal for the whole deployment),
then broadcast to every live shard's ``/v1/append``, then confirmed by
a **version barrier**: the call returns only after every healthy shard
reports the target snapshot version on ``/healthz``, so no shard keeps
serving a stale snapshot once an append is acked.  Appends are
serialized through one lock, which also pins each shard's maintenance
job grouping to one-batch-per-job — with the deterministic
maintainer, every shard's post-swap store is byte-identical
(:meth:`store_digest` verifies exactly that).

Supervision
-----------
Every shard unpickles a store-free engine template and mmap-attaches
the newest frozen snapshot (``store-v<n>.snap``): v0 is the base store,
frozen before the first spawn into ``config.snapshot_dir`` or a private
temporary directory, and every shard refreezes its store on each swap.

A background supervisor polls shard liveness.  A crashed shard (e.g.
the ``shard.crash`` failpoint, evaluated router-side so its counters
stay deterministic in one process) is respawned from the newest intact
snapshot v<n> with the append log's first n batches folded into its
table, and the router replays the log past n — same batches, same
grouping, same bytes; appends wait meanwhile.  The shard is routed to
only after that catch-up, so no answer comes from a version below the
router's; a shard whose catch-up fails is killed and respawned again.
In-flight requests routed at a dead shard retry on the next healthy
shard, so an injected crash loses zero requests.  ``/healthz`` reports
``degraded`` while any shard is down or catching up.

The manager exposes the same surface :class:`VoiceHttpServer` expects
from a ``VoiceService`` (``submit``, ``health``, ``metrics_summary``,
``sessions``, ``registry.version`` …), so the front server code is
shared between the single-process and sharded deployments; fan-out
accessors are coroutines, which the server awaits transparently.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import logging
import multiprocessing
import os
import pickle
import signal
import tempfile
import time
from typing import Any, Iterable

from repro.api import http1
from repro.api.clients import HttpClient, decode_ask
from repro.api.config import ServingConfig
from repro.api.envelopes import VoiceRequest, build_append_table
from repro.api.errors import ServiceOverloadedError, VoiceApiError
from repro.relational.table import Table
from repro.reliability import faults
from repro.storage.recovery import DurabilityCoordinator, recover_engine
from repro.store import SnapshotError, SnapshotPublisher
from repro.system.engine import VoiceQueryEngine, VoiceResponse
from repro.system.speech_store import SpeechStore

__all__ = ["ConsistentHashRing", "ShardManager"]

logger = logging.getLogger(__name__)

#: Virtual nodes per shard on the hash ring; enough that keys spread
#: evenly across a handful of shards.
VNODES_PER_SHARD = 64

#: Seconds the parent waits for a spawned shard's ready handshake.
SPAWN_TIMEOUT_SECONDS = 120.0

#: Supervisor liveness-poll interval (seconds).
SUPERVISE_INTERVAL_SECONDS = 0.1

#: Seconds the version barrier polls before giving up on a shard.
BARRIER_TIMEOUT_SECONDS = 60.0

#: Fast routing probe: bodies without this byte sequence cannot carry a
#: session id, so the router skips JSON parsing entirely for them.
_SESSION_MARKER = b'"session_id"'


def _stable_hash(key: str) -> int:
    """A process-independent 64-bit hash (``hash()`` is salted per run)."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRing:
    """Consistent-hash ring over shard indices with virtual nodes.

    The ring is a pure function of the shard count: respawning a shard
    reuses its index, so session→shard affinity survives crashes, and
    two routers built for the same deployment agree on every key.
    """

    def __init__(self, shard_count: int):
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self._shard_count = shard_count
        points = [
            (_stable_hash(f"shard-{index}:vnode-{vnode}"), index)
            for index in range(shard_count)
            for vnode in range(VNODES_PER_SHARD)
        ]
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [index for _, index in points]

    @property
    def shard_count(self) -> int:
        return self._shard_count

    def owner(self, key: str) -> int:
        """The shard index owning ``key`` (all shards healthy)."""
        position = bisect.bisect_right(self._points, _stable_hash(key))
        return self._owners[position % len(self._owners)]

    def route(self, key: str, healthy: Iterable[int] | None = None) -> int:
        """The owner, or the next healthy shard clockwise when it is down.

        The walk is deterministic, so every request of a session falls
        back to the *same* substitute while the owner is out.
        """
        if healthy is None:
            return self.owner(key)
        healthy = set(healthy)
        if not healthy:
            raise RuntimeError("no healthy shards to route to")
        position = bisect.bisect_right(self._points, _stable_hash(key))
        for offset in range(len(self._owners)):
            index = self._owners[(position + offset) % len(self._owners)]
            if index in healthy:
                return index
        raise RuntimeError("no healthy shards to route to")  # pragma: no cover


def _attach_engine(template: bytes, snapshot_dir: str, appended: list[list]) -> VoiceQueryEngine:
    """Unpickle a store-free engine template and attach its store.

    The engine serves the newest intact snapshot in ``snapshot_dir``,
    mapped read-only.  Snapshot v<n> was maintained from the base table
    plus the first n appended batches, so those batches (wire rows, in
    append-log order) are folded into the template's base table the
    way a live shard's maintainer folded them; the next maintenance
    job then builds on the same table as every other shard's.  Raises
    :class:`SnapshotError` when no snapshot attaches.
    """
    engine = pickle.loads(template)
    publisher = SnapshotPublisher(snapshot_dir)
    attached = publisher.attach_latest()
    if attached is None:
        raise SnapshotError(
            f"no snapshot in {snapshot_dir} attaches (last error: {publisher.last_error})"
        )
    version = attached.snapshot_version or 0
    if version > len(appended):
        raise SnapshotError(
            f"snapshot v{version} in {snapshot_dir} is newer than the "
            f"{len(appended)} appended batches"
        )
    engine.swap_store(attached)
    if version:
        table = engine.table
        engine.adopt_table(
            table.concat(*(build_append_table(table, rows) for rows in appended[:version]))
        )
    return engine


def _shard_main(conn, template: bytes, config, index: int, appended: list[list]) -> None:
    """Entry point of one shard process (spawn start method).

    Builds the engine with :func:`_attach_engine`, runs a full
    :class:`VoiceService` + :class:`VoiceHttpServer` on an ephemeral
    loopback port, reports ``("ready", index, port, version)`` over
    ``conn`` (the attached snapshot's version), and serves until
    SIGTERM/SIGINT (clean drain, exit 0).
    """
    # Imported lazily: only shard processes run a service and server
    # of their own.
    from repro.api.http_server import VoiceHttpServer
    from repro.serving.service import VoiceService

    async def run(engine: VoiceQueryEngine) -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        async with VoiceService(engine, config) as service:
            async with VoiceHttpServer(service, host="127.0.0.1", port=0) as server:
                conn.send(("ready", index, server.port, service.registry.version))
                conn.close()
                await stop.wait()

    try:
        asyncio.run(run(_attach_engine(template, config.snapshot_dir, appended)))
    except Exception as exc:  # pragma: no cover - startup failure surface
        try:
            conn.send(("error", index, repr(exc)))
            conn.close()
        except OSError:
            pass
        raise


class _ShardHandle:
    """The router's view of one shard process."""

    def __init__(self, index: int):
        self.index = index
        self.process: multiprocessing.process.BaseProcess | None = None
        self.port: int | None = None
        self.healthy = False
        self.respawns = 0
        # One client per spawned process, so a respawned shard never
        # inherits connections to its dead predecessor.
        self.client: HttpClient | None = None
        # Cached from the last metrics fan-out, for the sync facade.
        self.last_sessions = 0
        self.last_queue_depth = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def down(self) -> None:
        """Take the shard out of routing and close its client."""
        self.healthy = False
        if self.client is not None:
            self.client.close()


class _RouterSessions:
    """Facade matching ``service.sessions`` for the HTTP front-end.

    Sessions live inside the shards; the router forwards ``describe``
    to the session's owner (a coroutine the server awaits) and reports
    the summed live-session count cached from the last metrics fan-out.
    """

    def __init__(self, manager: "ShardManager"):
        self._manager = manager

    def __len__(self) -> int:
        return sum(handle.last_sessions for handle in self._manager._shards)

    def describe(self, session_id: str):
        return self._manager.describe_session(session_id)


class _RouterRegistry:
    """Facade matching ``service.registry`` (version only)."""

    def __init__(self, manager: "ShardManager"):
        self._manager = manager

    @property
    def version(self) -> int:
        return self._manager.version


class ShardManager:
    """Run ``config.shards`` engine processes behind one async router.

    Parameters
    ----------
    engine:
        The pre-processed base engine.  With ``config.data_dir`` set,
        durable state is recovered into it *before* the shards spawn,
        so every shard starts from the recovered store.  Construction
        freezes its store as snapshot v0 and pickles the engine minus
        its store as the spawn template; afterwards the engine object
        only supplies the append schema — the live stores evolve inside
        the shard processes.
    config:
        A :class:`repro.api.config.ServingConfig` with ``shards`` >= 1.
        Each shard serves with a copy of this config minus ``data_dir``
        (the router owns the one journal) and minus ``failpoints``
        (router-side sites like ``shard.crash`` must keep their
        counters in one process; shards run fault-free).  Snapshots go
        to ``snapshot_dir``, whose previous snapshots construction
        deletes, or without one to a private temporary directory that
        :meth:`stop` removes.

    Use as an async context manager from one event loop, like the
    service it stands in for.
    """

    def __init__(self, engine: VoiceQueryEngine, config: ServingConfig | None = None):
        self._config = config if config is not None else ServingConfig()
        self._engine = engine
        self._shard_count = max(1, self._config.shards)
        self._ring = ConsistentHashRing(self._shard_count)
        self._shards = [_ShardHandle(index) for index in range(self._shard_count)]
        self._mp = multiprocessing.get_context("spawn")
        self._durability: DurabilityCoordinator | None = None
        if self._config.data_dir is not None:
            _, self._durability = recover_engine(engine, self._config)
        # The base store is frozen as snapshot v0 (after recovery, so
        # shards attach the recovered state) and the pickle template is
        # the engine *minus its store* — the heavy payload ships once
        # as a file every shard maps read-only instead of N private
        # copies.
        self._temp_dir: tempfile.TemporaryDirectory | None = None
        snapshot_dir = self._config.snapshot_dir
        if snapshot_dir is None:
            self._temp_dir = tempfile.TemporaryDirectory(prefix="voice-snapshots-")
            snapshot_dir = self._temp_dir.name
        self._shard_config = self._config.replace(
            shards=1, data_dir=None, failpoints=(), snapshot_dir=snapshot_dir
        )
        self._publisher = SnapshotPublisher(snapshot_dir)
        # The router's versions restart at 0 on every start, so a
        # previous run's snapshots would hand shards stale stores.
        self._publisher.clear()
        if self._publisher.publish(engine.store, 0) is None:
            raise SnapshotError(
                f"could not freeze base snapshot v0 into {snapshot_dir}: "
                f"{self._publisher.last_error}"
            )
        previous = engine.swap_store(SpeechStore())
        try:
            self._template = pickle.dumps(engine)
        finally:
            engine.swap_store(previous)
        self._spawn_seconds: list[float] = []
        # Post-start appends, in broadcast order: (journal seq or None,
        # JSON rows).  A respawned shard folds the prefix its snapshot
        # covers into its table and is replayed the suffix one batch at
        # a time, so every shard applies the same jobs in the same order.
        self._append_log: list[tuple[int | None, list]] = []
        self._append_lock = asyncio.Lock()
        self._version = 0
        self._round_robin = 0
        self._running = False
        self._supervisor: asyncio.Task | None = None
        self._respawn_total = 0
        self._relay_retries = 0
        self.sessions = _RouterSessions(self)
        self.registry = _RouterRegistry(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> ServingConfig:
        return self._config

    @property
    def shard_count(self) -> int:
        return self._shard_count

    @property
    def running(self) -> bool:
        return self._running

    @property
    def version(self) -> int:
        """Snapshot version every shard has confirmed (the barrier's bar)."""
        return self._version

    @property
    def queue_depth(self) -> int:
        return sum(handle.last_queue_depth for handle in self._shards)

    @property
    def durability(self) -> DurabilityCoordinator | None:
        return self._durability

    @property
    def publisher(self) -> SnapshotPublisher:
        return self._publisher

    def shard_ports(self) -> list[int | None]:
        return [handle.port for handle in self._shards]

    def shard_pids(self) -> list[int | None]:
        """OS pids of the live shard processes (None for unspawned)."""
        return [
            handle.process.pid if handle.process is not None else None
            for handle in self._shards
        ]

    def spawn_stats(self) -> dict:
        """What each (re)spawn ships and how long the handshakes took.

        ``template_bytes`` is the pickled store-free engine a shard
        receives; the store arrives via the mmap'd snapshot file, whose
        newest version and size are ``snapshot_version`` and
        ``snapshot_bytes``.
        """
        stats: dict[str, Any] = {
            "template_bytes": len(self._template),
            "spawn_seconds": list(self._spawn_seconds),
        }
        versions = self._publisher.versions()
        if versions:
            newest = versions[-1]
            stats["snapshot_version"] = newest
            stats["snapshot_bytes"] = self._publisher.path_for(newest).stat().st_size
        return stats

    def _healthy_indices(self) -> list[int]:
        return [handle.index for handle in self._shards if handle.healthy]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "ShardManager":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def start(self) -> None:
        """Spawn every shard, wait for each ready handshake, supervise."""
        if self._running:
            raise RuntimeError("shard manager already started")
        if self._config.failpoints:
            faults.FAILPOINTS.ensure(
                self._config.failpoints, seed=self._config.failpoint_seed
            )
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(None, self._spawn_shard, handle)
                for handle in self._shards
            )
        )
        # Nothing was appended yet, so every shard serves the newest version.
        for handle in self._shards:
            handle.healthy = True
        self._running = True
        self._supervisor = loop.create_task(
            self._supervise(), name="shard-supervisor"
        )

    async def stop(self) -> None:
        """SIGTERM every shard, wait for clean exits, release resources."""
        if not self._running:
            return
        self._running = False
        supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            supervisor.cancel()
            try:
                await supervisor
            except asyncio.CancelledError:
                pass
        for handle in self._shards:
            handle.down()
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(None, self._stop_shard, handle)
                for handle in self._shards
            )
        )
        if self._durability is not None:
            self._durability.close()
        if self._temp_dir is not None:
            self._temp_dir.cleanup()

    def _spawn_shard(self, handle: _ShardHandle) -> int:
        """Start one shard process, block until it reports ready.

        Returns the snapshot version the shard attached.  Runs on an
        executor thread — process start-up and the ready handshake must
        not stall the router loop mid-respawn.  The shard is not yet
        routed to: the caller marks it healthy once it serves the
        router's version.
        """
        started = time.monotonic()
        appended = [rows for _, rows in self._append_log]
        recv_conn, send_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_shard_main,
            args=(send_conn, self._template, self._shard_config, handle.index, appended),
            name=f"voice-shard-{handle.index}",
            daemon=True,
        )
        process.start()
        send_conn.close()
        deadline = time.monotonic() + SPAWN_TIMEOUT_SECONDS
        try:
            while not recv_conn.poll(0.1):
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"shard {handle.index} did not report ready within "
                        f"{SPAWN_TIMEOUT_SECONDS:.0f}s"
                    )
                if not process.is_alive():
                    raise RuntimeError(
                        f"shard {handle.index} died during startup "
                        f"(exit code {process.exitcode})"
                    )
            message = recv_conn.recv()
        except (EOFError, OSError) as exc:
            process.kill()
            raise RuntimeError(
                f"shard {handle.index} handshake failed: {exc!r}"
            ) from exc
        finally:
            recv_conn.close()
        if message[0] != "ready":
            process.kill()
            raise RuntimeError(f"shard {handle.index} failed to start: {message}")
        handle.process = process
        handle.port = message[2]
        # Status codes pass through (no 503 retries): the router decides
        # what a shard's answer means.  The pool bound matches what the
        # shard itself admits: running plus queued requests.
        handle.client = HttpClient(
            "127.0.0.1",
            handle.port,
            max_connections=self._config.concurrency + self._config.max_queue_depth,
            overload_retries=0,
        )
        self._spawn_seconds.append(time.monotonic() - started)
        return message[3]

    def _stop_shard(self, handle: _ShardHandle) -> None:
        process = handle.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()
        process.join(timeout=30.0)
        if process.is_alive():  # pragma: no cover - drain watchdog
            process.kill()
            process.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    async def _supervise(self) -> None:
        """Detect dead shards and respawn them with the append log."""
        loop = asyncio.get_running_loop()
        while self._running:
            await asyncio.sleep(SUPERVISE_INTERVAL_SECONDS)
            for handle in self._shards:
                if not self._running:
                    return
                if handle.process is not None and not handle.alive:
                    handle.down()
                    handle.process.join(timeout=0)
                    handle.respawns += 1
                    self._respawn_total += 1
                    # Appends wait, so the log the shard folds into its
                    # table and is replayed cannot grow underneath it.
                    async with self._append_lock:
                        version = await loop.run_in_executor(None, self._spawn_shard, handle)
                        try:
                            await self._catch_up(handle, version)
                        except Exception:
                            # Still behind the router: kill it, so the
                            # next pass respawns it.
                            logger.exception("shard %d failed its catch-up", handle.index)
                            handle.process.kill()
                            continue
                        # Routed to only once it serves the router's version.
                        handle.healthy = True

    async def _catch_up(self, handle: _ShardHandle, version: int) -> None:
        """Replay the append-log suffix past ``version`` into a respawned shard.

        The shard attached snapshot ``version``, whose number is the
        append-log position that produced it.  One batch per request,
        each confirmed before the next, so the shard's maintenance jobs
        group exactly like the live shards' did — the precondition for
        byte-identical stores.
        """
        for position, (_, rows) in enumerate(self._append_log[version:], start=version + 1):
            await handle.client.append(rows)
            await self._await_version(handle, position)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route_key(self, body: bytes) -> str | None:
        """Extract the routing key without a JSON parse on the fast path."""
        marker = body.find(_SESSION_MARKER)
        if marker < 0:
            return None
        # Session-less envelopes still carry ``"session_id": null`` —
        # skip the parse unless the value could actually be a string.
        rest = body[marker + len(_SESSION_MARKER) :].lstrip()
        if rest.startswith(b":"):
            rest = rest[1:].lstrip()
            if rest.startswith(b"null"):
                return None
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        session_id = payload.get("session_id") if isinstance(payload, dict) else None
        if isinstance(session_id, str) and session_id:
            return session_id
        return None

    def _pick_shard(self, session_key: str | None) -> _ShardHandle:
        healthy = self._healthy_indices()
        if not healthy:
            raise ServiceOverloadedError("no healthy shards available")
        if session_key is not None:
            return self._shards[self._ring.route(session_key, healthy)]
        self._round_robin += 1
        return self._shards[healthy[self._round_robin % len(healthy)]]

    def _maybe_crash_shard(self, handle: _ShardHandle) -> None:
        """The ``shard.crash`` failpoint: SIGKILL the routed shard.

        Evaluated router-side (like ``worker.crash`` is parent-side) so
        the rule's counters live in one process and ``times=1`` means
        exactly one crash regardless of shard count.  The request that
        drew the crash then fails over to a healthy shard — the
        zero-lost-requests contract the chaos smoke asserts.
        """
        rule = faults.FAILPOINTS.trigger(faults.SHARD_CRASH)
        if rule is None:
            return
        process = handle.process
        if process is not None and process.is_alive() and process.pid:
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5.0)
        handle.down()

    async def relay_ask(self, body: bytes) -> tuple[int, bytes]:
        """Forward one ``/v1/ask`` body; the shard's raw response bytes.

        The hot path: no envelope decode/encode in the router.  A shard
        that dies mid-forward is marked down and the request retries on
        the next healthy shard, until every shard has been tried.
        """
        if not self._running:
            return 503, http1.encode_json(
                {"code": "draining", "error": "shard router is stopping"}
            ).encode("utf-8")
        session_key = self._route_key(body)
        last_error = "no healthy shards available"
        for _ in range(self._shard_count + 1):
            try:
                handle = self._pick_shard(session_key)
            except ServiceOverloadedError as exc:
                last_error = str(exc)
                break
            self._maybe_crash_shard(handle)
            if not handle.healthy:
                continue
            try:
                status, raw, _ = await handle.client.request("POST", "/v1/ask", body)
                return status, raw
            except ConnectionError as exc:
                # The shard died under the request (crash failpoint or a
                # real fault): fail it over, never the client.
                handle.down()
                self._relay_retries += 1
                last_error = str(exc)
        return 503, http1.encode_json({"code": "overloaded", "error": last_error}).encode("utf-8")

    async def submit(self, request: VoiceRequest) -> VoiceResponse:
        """Typed ask, routed like :meth:`relay_ask` (for in-process use)."""
        body = http1.encode_json(request.to_dict()).encode("utf-8")
        return decode_ask(*await self.relay_ask(body))

    async def describe_session(self, session_id: str) -> dict | None:
        """The session summary from its owning shard (None if unknown)."""
        healthy = self._healthy_indices()
        if not healthy:
            return None
        handle = self._shards[self._ring.route(session_id, healthy)]
        try:
            summary = await handle.client.session(session_id)
        except VoiceApiError:
            return None
        if summary is not None:
            summary["shard"] = handle.index
        return summary

    # ------------------------------------------------------------------
    # Maintenance fan-out
    # ------------------------------------------------------------------
    def build_append_table(self, rows: list) -> Table:
        """Validate wire rows against the deployment's table schema.

        Appends never change the schema, so the base engine's column
        layout is authoritative even though the maintained tables live
        inside the shards.
        """
        return build_append_table(self._engine.table, rows)

    async def request_append(self, new_rows: Table) -> int | None:
        """Journal, broadcast and barrier one append batch.

        Returns once **every healthy shard** serves the new snapshot
        version — the version barrier — so an acked append is never
        followed by a stale answer from any shard.  With a ``data_dir``
        the batch is journalled before the broadcast (the return value
        is its seq) and its applied marker lands after the barrier.
        Respawned shards catch up from the append log, so a shard that
        is down during the broadcast still converges.
        """
        async with self._append_lock:
            seq: int | None = None
            if self._durability is not None:
                seq = self._durability.log_append(new_rows)
            rows = new_rows.to_dicts()
            self._append_log.append((seq, rows))
            target_version = len(self._append_log)
            results = await asyncio.gather(
                *(handle.client.append(rows) for handle in self._shards if handle.healthy),
                return_exceptions=True,
            )
            for result in results:
                if isinstance(result, ConnectionError):
                    continue  # the shard died; respawn catch-up covers it
                if isinstance(result, BaseException):
                    # A 503 is MaintenanceUnavailableError, any other
                    # status a VoiceApiError.
                    raise result
            await asyncio.gather(
                *(
                    self._await_version(handle, target_version)
                    for handle in self._shards
                    if handle.healthy
                )
            )
            self._version = target_version
            if self._durability is not None and seq is not None:
                self._durability.mark_applied([seq], store_version=target_version)
            return seq

    async def _await_version(self, handle: _ShardHandle, version: int) -> None:
        """Poll one shard's ``/healthz`` until its snapshot reaches ``version``."""
        deadline = time.monotonic() + BARRIER_TIMEOUT_SECONDS
        current = None
        while True:
            try:
                current = (await handle.client.health()).get("snapshot_version")
            except ConnectionError:
                if not handle.alive:
                    return  # died mid-barrier; respawn catch-up re-applies
            except VoiceApiError:
                pass  # not answering 200 yet; poll again
            if isinstance(current, int) and current >= version:
                return
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"shard {handle.index} never reached snapshot version "
                    f"{version} (last: {current!r})"
                )
            await asyncio.sleep(0.02)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    async def metrics_summary(self) -> dict:
        """Every shard's metrics folded into one envelope + breakdown.

        Counters sum, ``qps`` sums (shards serve concurrently),
        ``hit_rate`` is recomputed from the summed response kinds, and
        the latency percentiles are completed-weighted averages of the
        shard percentiles — an approximation (true aggregate
        percentiles need the raw samples), labelled per shard in the
        ``shards`` breakdown so operators can read the exact values.
        """
        per_shard: dict[str, dict] = {}
        totals = {
            key: 0
            for key in (
                "submitted",
                "completed",
                "rejected",
                "errors",
                "timeouts",
                "inline",
                "offloaded",
                "exact_hits",
            )
        }
        kinds: dict[str, int] = {}
        qps = 0.0
        weighted = {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
        for handle in self._shards:
            if not handle.healthy:
                per_shard[str(handle.index)] = {"status": "down"}
                continue
            try:
                summary = await handle.client.metrics()
            except VoiceApiError as exc:
                status = "unreachable" if exc.status is None else f"http {exc.status}"
                per_shard[str(handle.index)] = {"status": status}
                continue
            per_shard[str(handle.index)] = summary
            handle.last_sessions = int(summary.get("sessions", 0))
            handle.last_queue_depth = int(summary.get("queue_depth", 0))
            for key in totals:
                totals[key] += int(summary.get(key, 0))
            for kind, count in (summary.get("responses_by_kind") or {}).items():
                kinds[kind] = kinds.get(kind, 0) + int(count)
            qps += float(summary.get("qps", 0.0))
            for key in weighted:
                weighted[key] += float(summary.get(key, 0.0)) * int(
                    summary.get("completed", 0)
                )
        completed = totals["completed"]
        hits = kinds.get("speech", 0)
        misses = kinds.get("no_data", 0)
        aggregated: dict[str, Any] = dict(totals)
        aggregated["responses_by_kind"] = dict(sorted(kinds.items()))
        aggregated["qps"] = qps
        aggregated["hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        for key, value in weighted.items():
            aggregated[key] = value / completed if completed else 0.0
        aggregated["router"] = {
            "shards": self._shard_count,
            "healthy_shards": len(self._healthy_indices()),
            "respawns": self._respawn_total,
            "relay_retries": self._relay_retries,
            "appends_broadcast": len(self._append_log),
            "snapshot_version": self._version,
        }
        aggregated["durability"] = (
            self._durability.stats() if self._durability is not None else None
        )
        aggregated["shards"] = per_shard
        return aggregated

    async def store_digest(self) -> dict[str, Any]:
        """Every healthy shard's store digest (the byte-parity probe)."""
        digests: dict[str, str | None] = {}
        for handle in self._shards:
            digest = None
            if handle.healthy:
                try:
                    digest = (await handle.client.store_digest()).get("digest")
                except VoiceApiError:
                    pass
            digests[str(handle.index)] = digest
        present = [digest for digest in digests.values() if digest is not None]
        return {
            "digests": digests,
            "snapshot_version": self._version,
            "consistent": bool(present) and len(set(present)) == 1,
        }

    def health(self) -> dict:
        """Router health: degraded while any shard is down.

        A completed respawn clears the degradation — past crashes stay
        visible in :meth:`reliability` and the ``router`` metrics, not
        here, so orchestration probes see recovery.
        """
        if not self._running:
            return {"status": "draining", "reasons": ["shard router is stopping"]}
        reasons = []
        for handle in self._shards:
            if not handle.healthy or not handle.alive:
                reasons.append(f"shard {handle.index} is down")
        return {
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "shards": self._shard_count,
            "healthy_shards": len(self._healthy_indices()),
        }

    def reliability(self) -> dict:
        """Router-side reliability counters (shape mirrors the service's)."""
        return {
            "shard_respawns": self._respawn_total,
            "relay_retries": self._relay_retries,
            "healthy_shards": len(self._healthy_indices()),
        }
