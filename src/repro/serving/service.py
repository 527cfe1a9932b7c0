"""The asyncio voice-serving service: concurrent requests over snapshots.

:class:`VoiceService` wraps a pre-processed
:class:`repro.system.engine.VoiceQueryEngine` as a long-lived service:

* **Request path** — :meth:`submit` answers a
  :class:`repro.api.envelopes.VoiceRequest` on the task that submitted
  it: no queue hop and no helper task, so a session-less exact hit
  finishes without yielding to the event loop.  Each request pins the
  current :class:`StoreSnapshot` at dispatch and answers entirely from
  it, so a maintenance swap mid-request is invisible.
* **Sessions** — requests carrying a ``session_id`` share repeat-state
  (the session's last answer and an exchange count) through a bounded
  :class:`repro.api.sessions.SessionStore`, so a "repeat" through the
  service replays exactly what the interactive engine would for the
  same history.  Session-less requests never touch the store, keeping
  the exact-hit fast path free of session overhead.
* **Inline store answers / bounded offload** — every store answer is
  one ``best_match`` on the pinned snapshot (an exact hit, the paper's
  near-zero-latency common case, or a subset match: a few dict probes
  either way) and is answered inline on the event loop.  Only advanced
  comparison/extremum answers, which aggregate over the table, are
  offloaded to a bounded thread-pool executor (``max(2, concurrency //
  2)`` threads) so one heavy request cannot stall the loop.
* **Admission control** — a semaphore admits at most ``concurrency``
  requests at once and at most ``max_queue_depth`` may wait for a slot;
  beyond that :meth:`submit` fails fast with
  :class:`ServiceOverloadedError` (backpressure instead of unbounded
  waiting).
* **Background maintenance** — :meth:`request_append` hands appended
  rows to the :class:`repro.serving.scheduler.MaintenanceScheduler`,
  which maintains a store clone on its own thread (optionally fanning
  out over a shared worker pool) and atomically swaps the new snapshot
  in; serving never pauses.
* **Metrics** — per-request latency feeds aggregate p50/p95/p99, qps,
  hit rate and offload counts (:class:`ServiceMetrics`).
* **Snapshot publishing** — with ``config.snapshot_dir``, or with
  ``config.data_dir`` (into ``data_dir/snapshots`` then), the registry
  freezes its first snapshot at construction and every swap after.
  Its first version is the recovered one with a ``data_dir``, else 0;
  since publishing skips versions already on disk, a previous run's
  files from that version on are deleted first.  With a ``data_dir`` each published
  version is also checkpointed: a manifest names its file
  (:mod:`repro.storage.checkpoint`).

The engine's session state is untouched while serving, and after every
snapshot swap the engine re-derives its table-bound components
(:meth:`VoiceQueryEngine.adopt_table` on the maintenance thread), so
dimension values introduced by appended rows parse correctly against
the new snapshot.  On :meth:`stop` the engine additionally adopts the
final snapshot's store (:meth:`VoiceQueryEngine.swap_store`), so a
quiesced engine afterwards answers exactly like the service did and a
new service built on it continues from consistent state.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.config import ServingConfig
from repro.api.envelopes import VoiceRequest, build_append_table
from repro.api.errors import ServiceOverloadedError
from repro.api.sessions import SessionStore
from repro.relational.table import Table
from repro.reliability import faults
from repro.serving.scheduler import MaintenanceScheduler
from repro.serving.snapshots import SnapshotRegistry
from repro.storage.recovery import (
    DurabilityCoordinator,
    RecoveredState,
    recover_engine,
)
from repro.store import CompactSpeechStore, SnapshotPublisher
from repro.system.classification import RequestType
from repro.system.engine import ResponseKind, VoiceQueryEngine, VoiceResponse
from repro.system.nlq import ParsedRequest
from repro.system.updates import IncrementalMaintainer
from repro.system.worker_pool import WorkerPool

__all__ = ["ServiceMetrics", "VoiceService"]

#: Latency samples kept for percentile estimation; older samples roll
#: off so a long-lived deployment reports recent tail behavior (read
#: when a :class:`ServiceMetrics` is made, so a test may monkeypatch it).
LATENCY_WINDOW = 100_000


@dataclass
class ServiceMetrics:
    """Aggregate serving metrics (counters plus a latency window)."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    errors: int = 0
    timeouts: int = 0
    offloaded: int = 0
    inline: int = 0
    exact_hits: int = 0
    responses_by_kind: dict[str, int] = field(default_factory=dict)
    _latencies: deque[float] = field(init=False, repr=False)
    _started_at: float = field(default_factory=time.perf_counter)

    def __post_init__(self) -> None:
        # The newest ``LATENCY_WINDOW`` samples; older ones roll off in O(1).
        self._latencies = deque(maxlen=LATENCY_WINDOW)

    def reset(self) -> None:
        """Zero all counters and restart the qps clock."""
        self.submitted = self.completed = self.rejected = self.errors = 0
        self.timeouts = 0
        self.offloaded = self.inline = self.exact_hits = 0
        self.responses_by_kind.clear()
        self._latencies.clear()
        self._started_at = time.perf_counter()

    def observe(self, response: VoiceResponse, latency: float, offloaded: bool) -> None:
        """Record one completed request."""
        self.completed += 1
        kind = response.kind.value
        self.responses_by_kind[kind] = self.responses_by_kind.get(kind, 0) + 1
        if response.kind is ResponseKind.TIMEOUT:
            self.timeouts += 1
        if offloaded:
            self.offloaded += 1
        else:
            self.inline += 1
        if response.kind is ResponseKind.SPEECH and response.exact_match:
            self.exact_hits += 1
        self._latencies.append(latency)

    @property
    def elapsed_seconds(self) -> float:
        """Seconds since construction or the last :meth:`reset`."""
        return time.perf_counter() - self._started_at

    @property
    def qps(self) -> float:
        """Completed requests per second since the last reset."""
        elapsed = self.elapsed_seconds
        return self.completed / elapsed if elapsed > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of answered data queries served from a stored speech."""
        hits = self.responses_by_kind.get(ResponseKind.SPEECH.value, 0)
        misses = self.responses_by_kind.get(ResponseKind.NO_DATA.value, 0)
        total = hits + misses
        return hits / total if total else 0.0

    @staticmethod
    def _percentile(ordered: list[float], fraction: float) -> float:
        if not ordered:
            return 0.0
        rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[rank]

    def summary(self) -> dict:
        """All aggregate metrics as one JSON-friendly dict."""
        ordered = sorted(self._latencies)
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "inline": self.inline,
            "offloaded": self.offloaded,
            "exact_hits": self.exact_hits,
            "responses_by_kind": dict(sorted(self.responses_by_kind.items())),
            "qps": self.qps,
            "hit_rate": self.hit_rate,
            "p50_ms": self._percentile(ordered, 0.50) * 1000.0,
            "p95_ms": self._percentile(ordered, 0.95) * 1000.0,
            "p99_ms": self._percentile(ordered, 0.99) * 1000.0,
        }


class VoiceService:
    """Serve a pre-processed voice engine to many concurrent sessions.

    Parameters
    ----------
    engine:
        A (typically pre-processed) :class:`VoiceQueryEngine`.  The
        service seeds its first snapshot from ``engine.store``.
    config:
        The :class:`repro.api.config.ServingConfig` holding every
        serving knob (concurrency, queue depth, session capacity).
        Defaults to ``ServingConfig()``.
    pool:
        Optional shared :class:`WorkerPool` for maintenance jobs'
        re-summarization fan-out; warmed up during :meth:`start` so the
        first maintenance pass pays no process start-up mid-traffic.
    maintainer:
        Override the :class:`IncrementalMaintainer` (default: built
        from the engine's config, table, summarizer and realizer).
    sessions:
        Override the per-session state store (default: a fresh
        :class:`repro.api.sessions.SessionStore` bounded by
        ``config.session_capacity``).

    Use as an async context manager or call :meth:`start` /
    :meth:`stop` explicitly, always from one event loop.
    """

    def __init__(
        self,
        engine: VoiceQueryEngine,
        config: ServingConfig | None = None,
        *,
        pool: WorkerPool | None = None,
        maintainer: IncrementalMaintainer | None = None,
        sessions: SessionStore | None = None,
    ):
        if config is None:
            config = ServingConfig()
        elif not isinstance(config, ServingConfig):
            # The second positional parameter used to be `concurrency`;
            # fail loudly at the call site instead of deep inside.
            raise TypeError(
                f"config must be a ServingConfig, got {type(config).__name__} "
                "(set serving knobs like concurrency on a ServingConfig)"
            )
        self._config = config
        self._engine = engine
        self._concurrency = config.concurrency
        self._max_queue_depth = config.max_queue_depth
        self._pool = pool
        self._sessions = (
            sessions if sessions is not None else SessionStore(config.session_capacity)
        )
        self._durability: DurabilityCoordinator | None = None
        self._recovery: RecoveredState | None = None
        snapshot_dir = config.snapshot_dir
        if snapshot_dir is None and config.data_dir is not None:
            snapshot_dir = Path(config.data_dir) / "snapshots"
        self._publisher = None if snapshot_dir is None else SnapshotPublisher(snapshot_dir)
        if config.data_dir is not None:
            # Recover durable state *before* seeding the first snapshot
            # and the maintainer, so both see the journal's appends.
            self._recovery, self._durability = recover_engine(engine, config)
        store = engine.store
        version = 0 if self._recovery is None else self._recovery.store_version
        if self._publisher is not None:
            # Publishing skips versions on disk, so a previous run's
            # files from this version on would be served in place of
            # this store's; only a recovered store's own attached file
            # stays.
            attached = self._recovery is not None and isinstance(
                store, CompactSpeechStore
            )
            self._publisher.clear(after=version if attached else version - 1)
        self._registry = SnapshotRegistry(
            store, version=version, publisher=self._publisher
        )
        # Freeze the base store so the snapshot directory always covers
        # a restart (a no-op when this version is already on disk, e.g.
        # the one recovery attached); swaps refreeze via the scheduler.
        published = self._registry.publish_current()
        if self._recovery is not None and self._recovery.replayed_records:
            # Checkpoint the replayed version so the next restart (and
            # every crash until the first swap) replays nothing twice.
            self._durability.checkpoint_now(published, version)
        self._scheduler = MaintenanceScheduler(
            maintainer
            or IncrementalMaintainer(
                engine.config,
                engine.table,
                summarizer=engine.summarizer,
                realizer=engine.realizer,
            ),
            self._registry,
            pool=pool,
            retry_seed=config.failpoint_seed,
            durability=self._durability,
            # After every swap the engine re-derives its table-bound
            # components (parser lexicon, advanced answerers), so
            # requests naming dimension values introduced by the
            # appended rows parse correctly against the new snapshot.
            # Runs on the maintenance thread; adopt_table only swaps
            # whole attributes, which loop-side readers load atomically.
            on_swap=engine.adopt_table,
        )
        self._metrics = ServiceMetrics()
        self._slots: asyncio.Semaphore | None = None
        self._waiting = 0
        self._executor: ThreadPoolExecutor | None = None
        self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self) -> VoiceQueryEngine:
        """The wrapped engine."""
        return self._engine

    @property
    def config(self) -> ServingConfig:
        """The resolved serving configuration."""
        return self._config

    @property
    def sessions(self) -> SessionStore:
        """Per-session repeat-state and logs (bounded LRU)."""
        return self._sessions

    @property
    def registry(self) -> SnapshotRegistry:
        """The snapshot registry shared with the scheduler."""
        return self._registry

    @property
    def scheduler(self) -> MaintenanceScheduler:
        """The background maintenance scheduler."""
        return self._scheduler

    @property
    def metrics(self) -> ServiceMetrics:
        """Aggregate serving metrics."""
        return self._metrics

    @property
    def durability(self) -> DurabilityCoordinator | None:
        """The durability coordinator (None without ``data_dir``)."""
        return self._durability

    @property
    def publisher(self) -> SnapshotPublisher | None:
        """The snapshot publisher (None without ``snapshot_dir`` or ``data_dir``)."""
        return self._publisher

    @property
    def recovery(self) -> RecoveredState | None:
        """What construction-time recovery rebuilt (None without ``data_dir``)."""
        return self._recovery

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._running

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a free slot."""
        return self._waiting

    def reliability(self) -> dict:
        """The error-taxonomy counters as one JSON-ready dict.

        Complements :class:`ServiceMetrics` (which counts what the
        request path observed) with what the reliability machinery did
        about it: maintenance retries and their outcomes, rows dropped
        after retry exhaustion, the breaker state, and worker-pool
        respawns/degradation.
        """
        scheduler = self._scheduler
        pool = self._pool
        return {
            "timeouts": self._metrics.timeouts,
            "maintenance_retries": scheduler.retry_count,
            "maintenance_retry_successes": scheduler.retry_successes,
            "maintenance_dropped_rows": scheduler.dropped_rows_total,
            "maintenance_consecutive_failures": scheduler.consecutive_failures,
            "retry_pending": scheduler.retry_pending,
            "breaker_state": scheduler.breaker_state,
            "worker_respawns": pool.respawn_count if pool is not None else 0,
            "pool_degraded": pool.degraded if pool is not None else False,
        }

    def metrics_summary(self) -> dict:
        """:meth:`ServiceMetrics.summary` plus reliability + durability."""
        summary = self._metrics.summary()
        summary["reliability"] = self.reliability()
        summary["durability"] = (
            self._durability.stats() if self._durability is not None else None
        )
        return summary

    def store_digest(self) -> dict:
        """A digest of the current snapshot's canonical store payload.

        ``sha256`` over :func:`canonical_store_payload`, so two
        services whose stores are byte-identical report the same
        digest — the parity probe between two deployments, or between
        a live one and its recovered copy.
        """
        import hashlib

        from repro.system.persistence import canonical_store_payload

        payload = canonical_store_payload(self._registry.current.store)
        return {
            "digest": hashlib.sha256(payload).hexdigest(),
            "snapshot_version": self._registry.version,
            "speeches": len(self._registry.current.store),
        }

    def health(self) -> dict:
        """Service health: ``ok``, ``degraded`` or ``draining`` + reasons.

        ``degraded`` means the service still answers but something is
        impaired — the worker pool fell back to serial, the maintenance
        breaker is open (appends rejected), a failed maintenance
        payload is awaiting retry, or rows were permanently dropped.
        ``draining`` means the service is stopping (or stopped) and no
        longer accepts requests.
        """
        if not self._running:
            return {"status": "draining", "reasons": ["service is stopping or stopped"]}
        reasons = []
        if self._pool is not None and self._pool.degraded:
            reasons.append(
                "worker pool degraded to serial after "
                f"{self._pool.respawn_count} respawns"
            )
        breaker = self._scheduler.breaker_state
        if breaker != "closed":
            reasons.append(f"maintenance circuit breaker is {breaker}")
        if self._scheduler.retry_pending:
            reasons.append("failed maintenance payload awaiting retry")
        dropped = self._scheduler.dropped_rows_total
        if dropped:
            reasons.append(f"{dropped} appended rows dropped after retry exhaustion")
        if self._durability is not None and self._durability.last_checkpoint_error:
            # Not data loss (the journal still covers everything), but
            # recovery time grows until a checkpoint lands again.
            reasons.append(
                "last checkpoint save failed: "
                f"{self._durability.last_checkpoint_error}"
            )
        return {"status": "degraded" if reasons else "ok", "reasons": reasons}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "VoiceService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def start(self) -> None:
        """Start accepting requests and the maintenance scheduler."""
        if self._running:
            raise RuntimeError("service already started")
        if self._config.failpoints:
            # ensure(), not configure(): when the CLI already installed
            # the same specs (so pre-processing could inject too), the
            # mid-run counters must survive service start.
            faults.FAILPOINTS.ensure(
                self._config.failpoints, seed=self._config.failpoint_seed
            )
        if self._pool is not None:
            self._pool.warm_up()
        self._slots = asyncio.Semaphore(self._concurrency)
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self._concurrency // 2), thread_name_prefix="voice-serving"
        )
        self._scheduler.start()
        self._running = True

    async def stop(self, drain_maintenance: bool = True) -> None:
        """Answer every admitted request, then stop the scheduler.

        New :meth:`submit` calls fail immediately; requests already in
        flight or waiting for a slot are still answered.
        ``drain_maintenance`` is forwarded to
        :meth:`MaintenanceScheduler.stop`.  Finally the engine adopts
        the last published snapshot, so quiesced ``engine.ask`` calls
        afterwards see every maintained speech.
        """
        if not self._running:
            return
        self._running = False
        # The semaphore wakes waiters first in, first out, so taking
        # every slot waits out each waiting request and then each one
        # in flight; no request can join behind.
        for _ in range(self._concurrency):
            await self._slots.acquire()
        await self._scheduler.stop(drain=drain_maintenance)
        self._executor.shutdown(wait=True)
        self._executor = None
        self._engine.swap_store(self._registry.current.store)
        if self._scheduler.table is not self._engine.table:
            # Safety net: the on_swap hook normally keeps the engine's
            # table current; catch any path that bypassed it.
            self._engine.adopt_table(self._scheduler.table)
        if self._durability is not None:
            stats = self._durability.stats()
            if stats["applied_seq"] > stats["last_checkpoint_seq"]:
                # A swap's checkpoint failed, or seqs were dropped since:
                # a clean shutdown checkpoints the final state so the
                # next start replays nothing.
                self._durability.checkpoint_now(
                    self._registry.publish_current(), self._registry.version
                )
            self._durability.close()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def submit(self, request: VoiceRequest) -> VoiceResponse:
        """Answer one voice request; resolves when the response is ready.

        Requests whose envelope carries a ``session_id`` read and
        advance that session's repeat-state, so a "repeat" answers with
        the session's previous response exactly like the interactive
        engine would; session-less requests are answered statelessly.

        The request is answered on the caller's task.  A free slot is
        taken without yielding, so an inline answer (any store answer,
        help, repeat) without a deadline completes in one step.

        Raises :class:`ServiceOverloadedError` when all ``concurrency``
        slots are busy and ``max_queue_depth`` requests are already
        waiting (admission control), and ``RuntimeError`` when the
        service is not running.
        """
        if not self._running:
            raise RuntimeError("service is not running")
        slots = self._slots
        waits = slots.locked()
        if waits and self._waiting >= self._max_queue_depth:
            self._metrics.rejected += 1
            raise ServiceOverloadedError(
                f"request queue is full ({self._max_queue_depth} waiting)"
            )
        self._metrics.submitted += 1
        submitted_at = time.perf_counter()
        self._waiting += waits
        try:
            await slots.acquire()  # a free slot is taken without yielding
        finally:
            self._waiting -= waits
        try:
            response, offloaded = await self._answer_within_deadline(request, submitted_at)
        except Exception:
            self._metrics.errors += 1
            raise
        finally:
            slots.release()
        response.latency_seconds = time.perf_counter() - submitted_at
        self._metrics.observe(response, response.latency_seconds, offloaded)
        return response

    def request_append(self, new_rows: Table) -> int | None:
        """Queue appended rows for background maintenance (no pause).

        With durability configured (``config.data_dir``) the batch is
        journaled before this returns and the return value is its
        journal seq — the ack is a durable promise.  Without it, None.
        """
        return self._scheduler.request_append(new_rows)

    def build_append_table(self, rows: list) -> Table:
        """Validate wire rows against the *current* maintained table's schema."""
        return build_append_table(self._scheduler.table, rows)

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    async def _answer_within_deadline(
        self, request: VoiceRequest, submitted_at: float
    ) -> tuple[VoiceResponse, bool]:
        """Answer one request, bounded by its deadline when it has one.

        The budget covers the wait for a slot *and* answering — a
        request that spent its whole ``deadline_ms`` waiting is answered
        with a ``timeout`` response immediately, without computing an
        answer nobody is waiting for anymore.  Expiry mid-answer cancels
        the answer on the caller's task (``asyncio.timeout``, no helper
        task); offloaded work that was still queued for the executor is
        cancelled with it (a thread already computing runs to
        completion, but its result is discarded and the response goes
        out on time).  Timed-out requests never record session state:
        the caller got no answer, so "repeat" must replay the last
        answer they actually heard.
        """
        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self._config.default_deadline_ms
        if deadline_ms is None:
            return await self._answer(request)
        remaining = deadline_ms / 1000.0 - (time.perf_counter() - submitted_at)
        if remaining > 0:
            try:
                async with asyncio.timeout(remaining):
                    return await self._answer(request)
            except TimeoutError:
                pass
        response = VoiceResponse(
            kind=ResponseKind.TIMEOUT,
            text="Sorry, answering took longer than the request allowed.",
            request_type=RequestType.OTHER,
        )
        return response, False

    async def _answer(self, request: VoiceRequest) -> tuple[VoiceResponse, bool]:
        """Answer one request against the snapshot pinned at dispatch.

        Store answers — an exact hit or a subset match, one
        ``best_match`` on the pinned snapshot either way — and canned
        help/repeat/unsupported texts are answered on the loop.  Only
        advanced answers, which aggregate over the table, go to the
        bounded executor.

        Session state is threaded through without taxing the fast path:
        requests without a ``session_id`` never touch the session
        store, and requests with one pay two O(1) locked dict
        operations — a repeat-state read (repeat requests only) and the
        post-answer record.
        """
        snapshot = self._registry.current
        parsed, request_type = self._engine.parse_and_classify(request.text)
        offloaded = (
            request_type is RequestType.UNSUPPORTED_QUERY and self._engine.advanced_enabled
        )
        if offloaded:
            response = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._respond_offloaded, parsed, request_type
            )
        else:
            last_response = None
            if request.session_id is not None and request_type is RequestType.REPEAT:
                last_response = self._sessions.last_response(request.session_id)
            response = self._engine.respond_to(
                parsed, request_type, store=snapshot.store, last_response=last_response
            )
        if request.session_id is not None:
            self._sessions.record(request.session_id, parsed, response)
        return response, offloaded

    def _respond_offloaded(
        self, parsed: ParsedRequest, request_type: RequestType
    ) -> VoiceResponse:
        # Offload failpoints, applied on the executor thread: a slow
        # offload overruns deadlines (serve.offload_slow), a failing
        # one errors the request (serve.offload_raise).
        rule = faults.FAILPOINTS.trigger(faults.OFFLOAD_SLOW)
        if rule is not None:
            time.sleep(rule.sleep)
        faults.FAILPOINTS.inject(faults.OFFLOAD_RAISE)
        return self._engine.respond_to(parsed, request_type)
