"""Re-entrant background maintenance scheduler for the serving service.

ROADMAP named the missing piece after PR 3's worker pool: "an async job
queue with re-entrant scheduling so one deployment can interleave
maintenance passes with live serving".  This module is that queue.

The scheduler accepts appended-row batches at any time
(:meth:`MaintenanceScheduler.request_append` is re-entrant: calling it
while a maintenance job is running simply queues more work) and runs at
most one maintenance job at a time on a dedicated thread, so the
asyncio request loop keeps serving while
:meth:`repro.system.updates.IncrementalMaintainer.maintain` crunches —
optionally fanning re-summarization out over a shared
:class:`repro.system.worker_pool.WorkerPool` (the CLI's ``--workers``
pool).  Batches that arrive while a job is in flight are *coalesced*:
the next job concatenates every queued batch into one append, paying
one affected-query discovery and one store swap for all of them.

Each job builds against a clone of the current snapshot
(:meth:`StoreSnapshot.begin_build`), so serving reads are never
disturbed, and publishes the maintained store with one atomic
:meth:`SnapshotRegistry.swap` on completion.  Because jobs are
serialized and each starts from the previous swap, the final store is
identical to running ``maintain`` serially on the same job batches in
the same order — the parity the serving benchmark and property tests
verify byte-for-byte.  A snapshot publish freezes the registry's one
compaction of the new version (:meth:`SnapshotRegistry.publish_current`),
which starts from the previous version's and re-encodes only the
speeches the job changed; a checkpoint is a manifest naming that file.

Failures are survived, not just recorded.  A failed job rolls the
maintainer back (the half-applied append would otherwise corrupt the
next pass), then its exact coalesced payload is **retried** with
exponential backoff and deterministic jitter, strictly before any
batches that arrived later — so the sequence of *published* appends is
the same as a no-fault run.  Only after :data:`RETRY_LIMIT` retries are
the rows declared lost: the final job records them in ``dropped_rows``
(previously they vanished silently) and the total is surfaced through
the service metrics.  A **circuit breaker** opens after
:data:`BREAKER_THRESHOLD` consecutive failures: new appends are rejected
with :class:`repro.api.errors.MaintenanceUnavailableError` until a
cooldown elapses and a half-open probe job succeeds.

Shutdown is clean mid-job: :meth:`stop` lets the in-flight job finish
(it owns a half-built clone nobody else sees) and either drains or
cancels the still-queued batches.  Draining runs pending retries
immediately (their backoff wait is skipped, their attempt budget is
not).

With a :class:`repro.storage.recovery.DurabilityCoordinator` attached,
accepted batches additionally survive *process death*: every batch is
journaled **before** :meth:`request_append` returns (the ack implies
durability), marked applied after its snapshot swap commits, and
marked dropped when retries are exhausted — so a restart replays
exactly the accepted-but-unapplied batches.  Batches cancelled by
``stop(drain=False)`` stay unapplied in the journal and are recovered
on the next start: with durability on, a no-drain shutdown defers the
work instead of discarding it.
"""

from __future__ import annotations

import asyncio
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from repro.api.errors import MaintenanceUnavailableError
from repro.relational.table import Table
from repro.reliability import faults
from repro.serving.snapshots import SnapshotRegistry
from repro.storage.recovery import DurabilityCoordinator
from repro.system.updates import IncrementalMaintainer, MaintenanceReport
from repro.system.worker_pool import WorkerPool

# The retry and breaker policy.  Each constant is read when it is
# used, so a test that needs another value monkeypatches the module.

#: Retries per failed payload (on top of its first attempt).
RETRY_LIMIT = 3

#: Backoff before retry ``attempt``: base * 2**(attempt-1), plus <= 10%
#: jitter (0.05, 0.1, 0.2 s for the three retries).
BACKOFF_BASE_SECONDS = 0.05

#: Consecutive failures before the circuit breaker opens.
BREAKER_THRESHOLD = 5

#: Seconds the breaker stays open before a half-open probe.
BREAKER_COOLDOWN_SECONDS = 1.0


@dataclass
class MaintenanceJob:
    """Record of one maintenance job the scheduler ran (or cancelled).

    Attributes
    ----------
    index:
        1-based sequence number in scheduling order.
    batches:
        How many :meth:`request_append` batches were coalesced into it.
    new_rows:
        The coalesced append table the job consumed (kept so parity
        checks can replay the exact batches serially).
    status:
        ``completed``, ``failed`` or ``cancelled``.
    report:
        The maintainer's report (completed jobs only).
    snapshot_version:
        Version of the snapshot the job published (completed jobs only).
    error:
        Repr of the exception (failed jobs only).
    seconds:
        Wall-clock time of the job including the snapshot swap.
    attempt:
        1 for a payload's first job; retries of the same payload count
        up from 2 (each attempt is its own job record).
    dropped_rows:
        Rows permanently lost with this job — non-zero only on the
        final failed attempt of a payload whose retries were exhausted
        (or a retry payload cancelled by ``stop(drain=False)``).
        Before the retry layer these rows vanished silently in
        ``rollback_table``; now every lost row is accounted for here
        and in the service metrics.
    journal_seqs:
        Write-ahead journal seqs of the job's batches (empty without a
        durability coordinator).
    """

    index: int
    batches: int
    new_rows: Table
    status: str
    report: MaintenanceReport | None = None
    snapshot_version: int | None = None
    error: str | None = None
    seconds: float = 0.0
    attempt: int = 1
    dropped_rows: int = 0
    journal_seqs: tuple[int, ...] = ()


class MaintenanceScheduler:
    """Runs incremental maintenance in the background, swapping snapshots.

    Parameters
    ----------
    maintainer:
        The incremental maintainer; its table advances with every job.
    registry:
        Snapshot registry shared with the request path.
    pool:
        Optional shared :class:`WorkerPool` for the re-summarization
        fan-out (one deployment-lifetime pool, warmed up at service
        start).  None runs each job serially in the scheduler thread.
    on_swap:
        Optional callback invoked after each successful snapshot swap
        with the maintainer's updated table.  Runs on the maintenance
        executor thread (it may do O(table) work, e.g. rebuilding a
        parser lexicon) — implementations must restrict themselves to
        atomic attribute swaps visible to the event loop.
    retry_seed:
        Seed of the jitter RNG, so chaos runs back off identically.
    durability:
        Optional :class:`DurabilityCoordinator`.  When set, every
        accepted batch is journaled before :meth:`request_append`
        returns its seq, applied seqs are committed (and checkpoints
        taken) after each swap, and exhausted payloads are marked
        dropped — the scheduler's ack becomes a durable promise.

    The scheduler is asyncio-native: construct and drive it from one
    event loop (:meth:`start`, :meth:`request_append`, :meth:`stop`).
    Only the maintenance computation itself leaves the loop, onto a
    dedicated single-thread executor.
    """

    def __init__(
        self,
        maintainer: IncrementalMaintainer,
        registry: SnapshotRegistry,
        pool: WorkerPool | None = None,
        on_swap=None,
        retry_seed: int = 0,
        durability: DurabilityCoordinator | None = None,
    ):
        self._maintainer = maintainer
        self._registry = registry
        self._pool = pool
        self._on_swap = on_swap
        self._jitter = random.Random(retry_seed)
        self._durability = durability
        #: Queued batches as (journal seq or None, rows).
        self._pending: list[tuple[int | None, Table]] = []
        #: A failed payload awaiting retry: (rows, journal seqs,
        #: attempts so far, earliest monotonic time the retry may run).
        #: At most one — jobs are serialized, so at most one payload
        #: can be failing.
        self._retry: tuple[Table, tuple[int, ...], int, float] | None = None
        self._retry_count = 0
        self._retry_successes = 0
        self._dropped_rows = 0
        self._consecutive_failures = 0
        self._breaker_opened_at: float | None = None
        self._jobs: list[MaintenanceJob] = []
        self._job_counter = 0
        self._task: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._closing = False
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def jobs(self) -> Sequence[MaintenanceJob]:
        """Finished (completed/failed/cancelled) jobs in scheduling order."""
        return tuple(self._jobs)

    @property
    def running(self) -> bool:
        """True between :meth:`start` and the end of :meth:`stop`."""
        return self._task is not None and not self._task.done()

    @property
    def table(self) -> Table:
        """The maintainer's current table (advances with every job)."""
        return self._maintainer.table

    @property
    def retry_pending(self) -> bool:
        """True while a failed payload is waiting for its next attempt."""
        return self._retry is not None

    @property
    def retry_count(self) -> int:
        """Retry attempts executed (any outcome), lifetime total."""
        return self._retry_count

    @property
    def retry_successes(self) -> int:
        """Jobs that completed on a retry attempt, lifetime total."""
        return self._retry_successes

    @property
    def dropped_rows_total(self) -> int:
        """Appended rows permanently lost across all exhausted payloads."""
        return self._dropped_rows

    @property
    def consecutive_failures(self) -> int:
        """Failed jobs since the last completed one (feeds the breaker)."""
        return self._consecutive_failures

    @property
    def breaker_state(self) -> str:
        """Circuit breaker state: ``closed``, ``open`` or ``half_open``.

        ``open`` rejects :meth:`request_append`; after
        :data:`BREAKER_COOLDOWN_SECONDS` it reads ``half_open``, which lets
        one append through as a probe — success closes the breaker,
        failure reopens it for another cooldown.
        """
        if self._breaker_opened_at is None:
            return "closed"
        if time.monotonic() - self._breaker_opened_at >= BREAKER_COOLDOWN_SECONDS:
            return "half_open"
        return "open"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the scheduler's worker task on the running event loop."""
        if self.running:
            raise RuntimeError("maintenance scheduler already started")
        self._closing = False
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="maintenance"
        )
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="maintenance-scheduler"
        )

    async def stop(self, drain: bool = True) -> None:
        """Stop the scheduler, finishing the in-flight job first.

        ``drain=True`` runs every still-queued batch before stopping
        (one final coalesced job); ``drain=False`` cancels the queued
        batches (recorded as ``cancelled`` jobs) and only waits for the
        job already in flight.  Either way the last published snapshot
        is complete — a job is never abandoned half-applied.
        """
        if self._task is None:
            return
        self._closing = True
        cancelled: list[tuple[int | None, Table]] = []
        dropped_retry: tuple[Table, tuple[int, ...], int, float] | None = None
        if not drain:
            if self._pending:
                cancelled, self._pending = self._pending, []
            # A cancelled retry payload is rows the service *accepted*
            # and then lost — unlike never-started pending batches, it
            # counts as dropped.
            dropped_retry, self._retry = self._retry, None
        self._wake.set()
        await self._task
        self._task = None
        if dropped_retry is not None:
            payload, seqs, attempts, _ = dropped_retry
            self._dropped_rows += payload.num_rows
            if self._durability is not None and seqs:
                # Dropped is durable too: a restart must not resurrect
                # rows this run already declared lost.
                self._durability.mark_dropped(seqs)
            self._jobs.append(
                MaintenanceJob(
                    index=self._next_index(),
                    batches=1,
                    new_rows=payload,
                    status="cancelled",
                    attempt=attempts + 1,
                    dropped_rows=payload.num_rows,
                    journal_seqs=seqs,
                )
            )
        if cancelled:
            # Recorded only after the worker exited, so the in-flight
            # job (which finished first) keeps its earlier index and
            # position in the job log.  Journaled-but-cancelled batches
            # keep their unapplied journal records: the next start
            # replays them, turning a no-drain shutdown into deferral
            # rather than loss.
            self._jobs.append(
                MaintenanceJob(
                    index=self._next_index(),
                    batches=len(cancelled),
                    new_rows=_concat([rows for _, rows in cancelled]),
                    status="cancelled",
                    journal_seqs=tuple(
                        seq for seq, _ in cancelled if seq is not None
                    ),
                )
            )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Job submission
    # ------------------------------------------------------------------
    def request_append(self, new_rows: Table) -> int | None:
        """Queue appended rows for background maintenance (re-entrant).

        Returns immediately; the rows are folded into the next job.
        Batches queued while a job is running are coalesced into one
        follow-up job.  Empty batches are ignored.

        With a durability coordinator the batch is journaled before
        this returns — the return value is its journal seq (None for
        empty batches or without durability), and a batch whose seq
        was returned survives any subsequent crash.  A journal-write
        failure raises before the batch is queued: nothing was
        promised, nothing was accepted.

        Raises :class:`MaintenanceUnavailableError` while the circuit
        breaker is open (:data:`BREAKER_THRESHOLD` consecutive failures,
        cooldown not yet elapsed): accepting the rows would only grow a
        payload that keeps failing, so the caller is told explicitly
        instead of the rows being dropped later.
        """
        if self._task is None or self._closing:
            raise RuntimeError("maintenance scheduler is not accepting appends")
        if self.breaker_state == "open":
            raise MaintenanceUnavailableError(
                "maintenance circuit breaker is open after "
                f"{self._consecutive_failures} consecutive failures"
            )
        if new_rows.num_rows == 0:
            return None
        seq = None
        if self._durability is not None:
            seq = self._durability.log_append(new_rows)
        self._pending.append((seq, new_rows))
        self._idle.clear()
        self._wake.set()
        return seq

    async def quiesce(self) -> None:
        """Wait until every queued batch has been maintained and swapped."""
        if self._idle is not None:
            await self._idle.wait()

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._pending or self._retry is not None:
                if self._retry is not None:
                    # The failed payload goes first — batches that
                    # arrived after it must publish after it, exactly
                    # as they would have in a no-fault run.  It stays
                    # in ``_retry`` (visible to ``retry_pending`` and
                    # cancellable by a no-drain stop) until its backoff
                    # has fully elapsed.
                    payload, seqs, attempts, ready_at = self._retry
                    await self._await_backoff(ready_at)
                    if self._retry is None:
                        continue  # cancelled by stop(drain=False) mid-wait
                    self._retry = None
                    self._retry_count += 1
                    await self._run_job(
                        loop,
                        [(None, payload)],
                        payload=payload,
                        seqs=seqs,
                        attempt=attempts + 1,
                    )
                    continue
                batches, self._pending = self._pending, []
                await self._run_job(loop, batches)
            if not self._pending and self._retry is None:
                self._idle.set()
            if self._closing:
                return

    async def _await_backoff(self, ready_at: float) -> None:
        """Sleep until a retry is due; interruptible, skipped on close.

        New appends arriving mid-backoff set ``_wake`` but must not cut
        the wait short (the retry still goes first, after its delay) —
        only :meth:`stop` does, because a draining shutdown should not
        dawdle: the attempt budget, not the pacing, bounds its work.
        """
        while not self._closing:
            remaining = ready_at - time.monotonic()
            if remaining <= 0:
                return
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                return
            self._wake.clear()

    def _next_index(self) -> int:
        """The next unique job index (allocation order, never reused)."""
        self._job_counter += 1
        return self._job_counter

    async def _run_job(
        self,
        loop: asyncio.AbstractEventLoop,
        batches: list[tuple[int | None, Table]],
        payload: Table | None = None,
        seqs: tuple[int, ...] | None = None,
        attempt: int = 1,
    ) -> None:
        job = MaintenanceJob(
            index=self._next_index(),
            batches=len(batches),
            new_rows=(
                _concat([rows for _, rows in batches]) if payload is None else payload
            ),
            status="running",
            attempt=attempt,
            journal_seqs=(
                tuple(seq for seq, _ in batches if seq is not None)
                if seqs is None
                else seqs
            ),
        )
        start = time.perf_counter()
        table_before = self._maintainer.table
        try:
            build, job.report = await loop.run_in_executor(
                self._executor, self._maintain, job.new_rows
            )
            # The swap.commit failpoint fires with the build finished
            # but unpublished — the worst crash site for durability: a
            # killing rule loses the maintained state *after* the work
            # (journaled batches must be replayed), a raising rule
            # exercises rollback + retry with the journal intact.
            faults.FAILPOINTS.inject(faults.SWAP_COMMIT)
            job.snapshot_version = self._registry.swap(build).version
            job.status = "completed"
            self._consecutive_failures = 0
            self._breaker_opened_at = None
            published = None
            if self._registry.publisher is not None:
                # Freeze the maintained store for checkpoints and
                # restarts: the compaction costs the changed
                # speeches, the file write the store, so on the
                # executor; failures are recorded on the publisher,
                # never raised into the job.
                published = await loop.run_in_executor(
                    self._executor, self._registry.publish_current
                )
            if attempt > 1:
                self._retry_successes += 1
            if self._durability is not None and job.journal_seqs:
                # On the executor thread: the checkpoint fsyncs the
                # journal and writes a manifest naming the published
                # file — never on the event loop.
                await loop.run_in_executor(
                    self._executor,
                    self._durability.commit_applied,
                    job.journal_seqs,
                    published,
                    job.snapshot_version,
                )
            if self._on_swap is not None:
                await loop.run_in_executor(
                    self._executor, self._on_swap, self._maintainer.table
                )
        except Exception as exc:
            job.status = "failed"
            job.error = repr(exc)
            # maintain() appends rows before re-summarizing; undo so
            # the maintainer stays consistent with the last snapshot
            # that actually published (the failed build is discarded).
            self._maintainer.rollback_table(table_before)
            self._record_failure(job, attempt)
        finally:
            job.seconds = time.perf_counter() - start
            self._jobs.append(job)

    def _record_failure(self, job: MaintenanceJob, attempt: int) -> None:
        """Schedule a retry, or account the rows as dropped; feed the breaker."""
        self._consecutive_failures += 1
        if self._consecutive_failures >= BREAKER_THRESHOLD:
            # (Re)open — a failed half-open probe lands here too and
            # restarts the cooldown.
            self._breaker_opened_at = time.monotonic()
        if attempt <= RETRY_LIMIT:
            delay = BACKOFF_BASE_SECONDS * 2 ** (attempt - 1)
            delay *= 1.0 + 0.1 * self._jitter.random()
            self._retry = (
                job.new_rows,
                job.journal_seqs,
                attempt,
                time.monotonic() + delay,
            )
        else:
            job.dropped_rows = job.new_rows.num_rows
            self._dropped_rows += job.dropped_rows
            if self._durability is not None and job.journal_seqs:
                # The journal must agree the rows are gone, or the next
                # restart would replay batches this run declared lost.
                self._durability.mark_dropped(job.journal_seqs)

    def _maintain(self, new_rows: Table):
        """One maintenance pass (runs entirely on the scheduler thread).

        Clones the current snapshot here too — the clone is O(store)
        and only reads the immutable published snapshot, so doing it
        off the event loop keeps request serving unstalled however
        large the store grows.
        """
        build = self._registry.current.begin_build()
        report = self._maintainer.maintain(new_rows, build, pool=self._pool)
        # The maintain.raise failpoint fires *after* the maintainer
        # appended and re-summarized — the worst moment: rollback,
        # retry and the breaker all get exercised on a real, non-empty
        # table delta.
        faults.FAILPOINTS.inject(faults.MAINTAIN_RAISE)
        return build, report


def _concat(batches: list[Table]) -> Table:
    """Concatenate append batches in arrival order."""
    return batches[0].concat(*batches[1:])
