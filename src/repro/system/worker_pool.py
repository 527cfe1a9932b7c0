"""Supervised persistent worker pool: the fault-tolerant service layer.

PR 3 made the pool persistent (one ``multiprocessing`` pool shared by
batch pre-processing and incremental maintenance); this revision makes
it **supervised**.  The original implementation delegated process
management to ``multiprocessing.Pool``, which hides worker death — a
killed worker silently loses its task, the parent only notices when the
chunk timeout expires (300+ seconds later), and the whole run aborts.
For a serving deployment whose maintenance passes ride on this pool,
one OOM-killed worker stalling and then aborting a maintenance run is a
reliability hole that multiplies by N once serving is sharded.

:class:`WorkerPool` therefore owns its workers directly:

* each worker is a ``multiprocessing.Process`` with a private task
  queue (parent enqueues without blocking) and a private result pipe
  (one worker's death cannot corrupt another's result stream);
* the parent waits on every result pipe **and every process sentinel**
  at once (:func:`multiprocessing.connection.wait`), so a dead worker
  is detected the moment the OS reaps it — not when a timeout expires;
* a dead (or hung — chunk older than ``chunk_timeout``) worker is
  **respawned**: the replacement receives the current run context and
  the lost chunks are re-dispatched, and because the parent already
  merges results in submission order, the output stream — and any
  store built from it — is byte-identical to a no-fault run;
* after ``max_respawns`` respawns the pool **degrades to serial**:
  remaining and future chunks run in the parent process (slower, never
  wrong), and :attr:`degraded` reports the state for health endpoints.

Per-run context broadcast works as before from the caller's view —
``imap_chunks(context, func, chunks)`` ships the context to every
worker once per run, not per chunk — but needs no rendezvous barrier:
each worker's task queue is FIFO, so a context install enqueued before
a chunk is always installed before that chunk runs.  With ``workers <=
1`` the pool degrades to an in-process serial loop and no processes are
ever spawned.

Fault injection: the parent consults the
:mod:`repro.reliability.faults` registry at chunk dispatch
(``worker.crash`` — the receiving worker hard-exits instead of
computing) and at context broadcast (``worker.broadcast_stall`` — the
worker sleeps before installing).  Evaluating rules parent-side keeps
their counters in one process, so "crash exactly twice" means exactly
twice even across respawns.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.reliability import faults

#: Default ceiling on one chunk's solve time.  A worker whose current
#: chunk is older than this is presumed hung: it is killed, respawned
#: and its chunks re-dispatched (counting toward ``max_respawns``),
#: instead of the whole run aborting as before.
CHUNK_TIMEOUT_SECONDS = 3600.0

#: Default worker respawns tolerated before degrading to serial.
DEFAULT_MAX_RESPAWNS = 3

#: Exit code workers use for the ``worker.crash`` failpoint.
CRASH_EXIT_CODE = 173

#: Seconds close() waits for workers to finish gracefully before
#: killing them (abandoned chunks' results die with the pool anyway).
_CLOSE_GRACE_SECONDS = 5.0

#: Safety poll while waiting with no armed chunk deadline.
_IDLE_WAIT_SECONDS = 0.5


def _transportable_error(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, else a faithful stand-in."""
    try:
        pickle.dumps(exc)
    except Exception:
        return RuntimeError(f"worker task failed: {exc!r}")
    return exc


def _worker_main(tasks, result_writer) -> None:
    """Worker process loop: install contexts, run chunks, send results."""
    token = None
    context = None
    while True:
        try:
            message = tasks.get()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            result_writer.close()
            return
        if kind == "context":
            _, token, context, stall_seconds = message
            if stall_seconds:
                time.sleep(stall_seconds)
            try:
                result_writer.send(("ready", token))
            except (BrokenPipeError, OSError):
                return
            continue
        _, task_id, task_token, func, chunk, directive = message
        if directive == "crash":
            # The worker.crash failpoint: die the hard way, mid-stream,
            # exactly like an OOM kill would.
            os._exit(CRASH_EXIT_CODE)
        try:
            if task_token != token:
                raise RuntimeError(
                    f"stale worker-pool task: expected context {task_token}"
                )
            result = func(context, chunk)
        except BaseException as exc:  # noqa: BLE001 - ferried to the parent
            payload = ("error", task_id, _transportable_error(exc))
        else:
            payload = ("result", task_id, result)
        try:
            result_writer.send(payload)
        except (BrokenPipeError, OSError):
            return


@dataclass
class _Task:
    """Parent-side record of one dispatched chunk."""

    chunk: Any
    wanted: bool = True  # False once the run abandoned it (early stop)


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("process", "tasks", "reader", "inflight", "head_started", "token")

    def __init__(self, process, tasks, reader):
        self.process = process
        self.tasks = tasks
        self.reader = reader
        #: Task ids dispatched to this worker, oldest (running) first.
        self.inflight: deque[int] = deque()
        #: When the head task started (dispatch, or previous result).
        self.head_started: float | None = None
        #: Context token last enqueued to this worker.
        self.token: int | None = None

    def discard(self, task_id: int) -> None:
        """Remove one task from the in-flight deque, advancing the clock."""
        try:
            self.inflight.remove(task_id)
        except ValueError:
            return
        self.head_started = time.monotonic() if self.inflight else None


class WorkerPool:
    """A reusable, supervised process pool with per-run context broadcast.

    Parameters
    ----------
    workers:
        Number of worker processes.  0 or 1 selects the serial fallback:
        chunks run in the calling process and no pool is ever spawned.
    lookahead:
        Maximum in-flight chunks per worker while streaming (bounds
        memory for generator-fed runs).
    chunk_timeout:
        Seconds one chunk may run before its worker is presumed hung
        and killed/respawned (see ``CHUNK_TIMEOUT_SECONDS``).
    max_respawns:
        Worker respawns (deaths or hangs) tolerated over the pool's
        lifetime before it degrades to serial execution.

    The pool is lazy: processes spawn on the first parallel
    :meth:`imap_chunks` call, survive across calls (that is the point),
    and are torn down by :meth:`close` / context-manager exit.  A closed
    pool may be used again — it simply respawns lazily.  A pool that
    exhausted ``max_respawns`` stays :attr:`degraded` (serial, correct,
    reported via health endpoints) for the rest of its lifetime.
    """

    def __init__(
        self,
        workers: int,
        lookahead: int = 2,
        chunk_timeout: float = CHUNK_TIMEOUT_SECONDS,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        if chunk_timeout <= 0:
            raise ValueError(f"chunk_timeout must be positive, got {chunk_timeout}")
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {max_respawns}")
        self._workers = int(workers)
        self._lookahead = int(lookahead)
        self._chunk_timeout = float(chunk_timeout)
        self._max_respawns = int(max_respawns)
        self._slots: dict[int, _Worker] = {}
        self._tasks: dict[int, _Task] = {}
        self._task_counter = 0
        self._context_token = 0
        self._installed_token: int | None = None
        # Strong reference to the broadcast context: identity is the
        # re-broadcast test, and holding the object pins its id.
        self._installed_context: Any = None
        self._spawn_count = 0
        self._respawns = 0
        self._degraded = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Configured worker count (0/1 = serial fallback)."""
        return self._workers

    @property
    def parallel(self) -> bool:
        """True when runs are distributed over worker processes."""
        return self._workers > 1 and not self._degraded

    @property
    def spawned(self) -> bool:
        """True while worker processes are alive."""
        return bool(self._slots)

    @property
    def spawn_count(self) -> int:
        """How many times the full worker set was (re)spawned.

        A deployment reusing one pool across N maintenance passes keeps
        this at 1; the per-run-fork strategy pays N spawns.  Individual
        worker respawns after a crash count in :attr:`respawn_count`,
        not here.
        """
        return self._spawn_count

    @property
    def respawn_count(self) -> int:
        """Workers respawned after dying or hanging (lifetime total)."""
        return self._respawns

    @property
    def max_respawns(self) -> int:
        """Respawns tolerated before degrading to serial."""
        return self._max_respawns

    @property
    def degraded(self) -> bool:
        """True once respawns were exhausted and the pool runs serially.

        A degraded pool stays correct — chunks run in the parent
        process — but no longer parallel; health endpoints surface the
        state so operators notice the capacity loss.
        """
        return self._degraded

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker processes down gracefully (idempotent).

        Workers get a stop message and ``_CLOSE_GRACE_SECONDS`` to
        finish their current chunk; stragglers (e.g. busy on a chunk
        abandoned by an early-stopped run) are killed — their results
        die with the pool either way.
        """
        slots, self._slots = self._slots, {}
        self._installed_token = None
        self._installed_context = None
        self._tasks.clear()
        for worker in slots.values():
            try:
                worker.tasks.put(("stop",))
            except (ValueError, OSError):
                pass
        deadline = time.monotonic() + _CLOSE_GRACE_SECONDS
        for worker in slots.values():
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
        self._reap(slots)

    def terminate(self) -> None:
        """Kill the worker processes without waiting (idempotent).

        The pool object stays usable — the next run respawns lazily.
        """
        slots, self._slots = self._slots, {}
        self._installed_token = None
        self._installed_context = None
        self._tasks.clear()
        self._reap(slots)

    def warm_up(self) -> None:
        """Spawn the worker processes now instead of on first use.

        The pool is normally lazy, which is right for batch runs but
        wrong for a serving deployment: there the first maintenance
        pass would pay process start-up *while requests are in flight*.
        Calling ``warm_up`` during service start moves that cost ahead
        of traffic.  No-op for serial (and degraded) pools and when
        already spawned.
        """
        if self.parallel:
            self._ensure_workers()

    @staticmethod
    def _reap(slots: dict[int, _Worker]) -> None:
        """Kill and clean up whatever workers remain in ``slots``."""
        for worker in slots.values():
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.reader.close()
            except OSError:
                pass
            worker.tasks.close()
            worker.tasks.cancel_join_thread()

    # ------------------------------------------------------------------
    # Spawning and supervision
    # ------------------------------------------------------------------
    def _spawn_worker(self, slot: int) -> _Worker:
        tasks: multiprocessing.Queue = multiprocessing.Queue()
        reader, writer = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_worker_main,
            args=(tasks, writer),
            name=f"repro-pool-worker-{slot}",
            daemon=True,
        )
        process.start()
        # The parent must drop its copy of the write end, or the reader
        # would never see EOF after the worker dies.
        writer.close()
        worker = _Worker(process, tasks, reader)
        self._slots[slot] = worker
        return worker

    def _ensure_workers(self) -> None:
        if self._slots:
            # Replace workers that died while the pool sat idle between
            # runs (nobody was watching their sentinels).
            for slot, worker in list(self._slots.items()):
                if not worker.process.is_alive():
                    self._retire_worker(slot)
                    self._respawns += 1
                    if self._check_degrade():
                        return
                    self._spawn_worker(slot)
            return
        for slot in range(self._workers):
            self._spawn_worker(slot)
        self._spawn_count += 1
        self._installed_token = None
        self._installed_context = None

    def _retire_worker(self, slot: int) -> _Worker | None:
        """Drop one worker's handle, killing the process if needed."""
        worker = self._slots.pop(slot, None)
        if worker is None:
            return None
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=1.0)
        try:
            worker.reader.close()
        except OSError:
            pass
        worker.tasks.close()
        worker.tasks.cancel_join_thread()
        return worker

    def _check_degrade(self) -> bool:
        """Degrade to serial when respawns are exhausted; True if so."""
        if self._respawns <= self._max_respawns:
            return False
        self._degraded = True
        slots, self._slots = self._slots, {}
        self._installed_token = None
        self._installed_context = None
        self._reap(slots)
        return True

    # ------------------------------------------------------------------
    # Context broadcast
    # ------------------------------------------------------------------
    def _broadcast(self, context: Any) -> int:
        """Enqueue ``context`` on every worker; returns its token.

        Re-uses the previous broadcast when the same context object is
        run again (the common case: one engine, many runs).  Identity —
        not equality — is the test, so a mutated-and-resubmitted
        context must be a new object; the callers here always rebuild
        their context tuples per run state, making identity exact.

        No rendezvous is needed: each worker's task queue is FIFO, so
        the install is processed before any chunk enqueued after it.
        """
        if self._installed_token is not None and self._installed_context is context:
            token = self._installed_token
        else:
            self._context_token += 1
            token = self._context_token
            self._installed_token = token
            self._installed_context = context
        for worker in self._slots.values():
            if worker.token != token:
                self._install_on(worker, token, context, allow_stall=True)
        return token

    def _install_on(
        self, worker: _Worker, token: int, context: Any, allow_stall: bool
    ) -> None:
        stall = 0.0
        if allow_stall:
            rule = faults.FAILPOINTS.trigger(faults.WORKER_BROADCAST_STALL)
            if rule is not None:
                stall = rule.sleep
        worker.tasks.put(("context", token, context, stall))
        worker.token = token

    # ------------------------------------------------------------------
    # Streaming execution
    # ------------------------------------------------------------------
    def imap_chunks(
        self, context: Any, func: Callable[[Any, Any], Any], chunks: Iterable[Any]
    ) -> Iterator[Any]:
        """Apply ``func(context, chunk)`` to every chunk, yielding in order.

        ``chunks`` may be (and for streaming runs should be) a lazy
        generator; at most ``lookahead`` chunks per worker are in
        flight, so memory stays bounded by the look-ahead window rather
        than the task list.  Results come back in submission order
        regardless of completion order, and regardless of worker deaths
        in between — lost chunks are re-dispatched to the respawned
        worker, so the stream is byte-identical to a no-fault run.
        Stopping the returned iterator early simply abandons in-flight
        chunks (their results are dropped); the pool stays usable for
        the next run.

        ``func`` must be a module-level callable and ``context`` must be
        picklable; the context is broadcast to every worker once per run
        (re-broadcast only when the context object changes), not pickled
        per chunk.
        """
        if not self.parallel:
            for chunk in chunks:
                yield func(context, chunk)
            return
        yield from self._imap_parallel(context, func, chunks)

    def _imap_parallel(
        self, context: Any, func: Callable[[Any, Any], Any], chunks: Iterable[Any]
    ) -> Iterator[Any]:
        self._ensure_workers()
        if self._degraded:
            for chunk in chunks:
                yield func(context, chunk)
            return
        token = self._broadcast(context)
        chunk_iterator = iter(chunks)
        pending: deque[int] = deque()  # submission order
        buffered: dict[int, tuple[str, Any]] = {}
        exhausted = False

        def submit_next() -> bool:
            nonlocal exhausted
            if exhausted or self._degraded:
                return False
            chunk = next(chunk_iterator, _SENTINEL)
            if chunk is _SENTINEL:
                exhausted = True
                return False
            self._task_counter += 1
            task_id = self._task_counter
            self._tasks[task_id] = _Task(chunk=chunk)
            pending.append(task_id)
            self._dispatch(task_id, func, token)
            return True

        def handle_message(worker: _Worker, message: tuple) -> None:
            kind = message[0]
            if kind == "ready":
                return
            _, task_id, payload = message
            worker.discard(task_id)
            task = self._tasks.pop(task_id, None)
            if task is not None and task.wanted:
                buffered[task_id] = (kind, payload)
                submit_next()

        def handle_death(slot: int) -> None:
            """Drain, retire and replace one dead/hung worker."""
            worker = self._slots[slot]
            # Results the worker managed to send before dying are real;
            # drain them so completed work is never recomputed.
            while True:
                try:
                    if not worker.reader.poll():
                        break
                    handle_message(worker, worker.reader.recv())
                except (EOFError, OSError):
                    break
            lost = list(worker.inflight)
            self._retire_worker(slot)
            self._respawns += 1
            if self._check_degrade():
                return
            replacement = self._spawn_worker(slot)
            if self._installed_token is not None:
                self._install_on(
                    replacement, self._installed_token, self._installed_context,
                    allow_stall=False,
                )
            for task_id in lost:
                task = self._tasks.get(task_id)
                if task is None:
                    continue
                if task.wanted:
                    # Order-preserving by construction: the parent
                    # yields by submission order, so re-dispatch order
                    # only affects latency, never the output stream.
                    self._dispatch(task_id, func, token, worker=replacement)
                else:
                    self._tasks.pop(task_id, None)

        def pump() -> None:
            """Wait for one event: a result, a death, or a hung deadline."""
            now = time.monotonic()
            deadlines = [
                worker.head_started + self._chunk_timeout - now
                for worker in self._slots.values()
                if worker.inflight and worker.head_started is not None
            ]
            wait_timeout = (
                max(0.0, min(deadlines)) if deadlines else _IDLE_WAIT_SECONDS
            )
            watched: dict[object, tuple[int, _Worker, str]] = {}
            for slot, worker in self._slots.items():
                watched[worker.reader] = (slot, worker, "reader")
                watched[worker.process.sentinel] = (slot, worker, "sentinel")
            ready = multiprocessing.connection.wait(
                list(watched), timeout=wait_timeout
            )
            if not ready:
                self._reap_hung(handle_death)
                return
            dead: set[int] = set()
            for event in ready:
                slot, worker, what = watched[event]
                if slot in dead or self._slots.get(slot) is not worker:
                    continue
                if what == "sentinel":
                    dead.add(slot)
                    handle_death(slot)
                    continue
                try:
                    message = worker.reader.recv()
                except (EOFError, OSError):
                    dead.add(slot)
                    handle_death(slot)
                    continue
                handle_message(worker, message)

        try:
            for _ in range(self._workers * self._lookahead):
                if not submit_next():
                    break
            while pending:
                head = pending[0]
                if head in buffered:
                    pending.popleft()
                    kind, payload = buffered.pop(head)
                    if kind == "error":
                        raise payload
                    yield payload
                    submit_next()
                    continue
                pump()
                if self._degraded:
                    yield from self._finish_serially(
                        context, func, pending, buffered, chunk_iterator
                    )
                    return
        finally:
            # An early-stopped run (closed iterator, max_problems cut)
            # leaves submitted chunks in flight; mark them unwanted so
            # their eventual results are dropped and a dead worker
            # never wastes a respawn re-dispatching them.
            for task_id in pending:
                task = self._tasks.get(task_id)
                if task is not None:
                    task.wanted = False
            buffered.clear()

    def _dispatch(
        self, task_id: int, func: Callable, token: int, worker: _Worker | None = None
    ) -> None:
        """Send one chunk to a worker (least-loaded when not pinned)."""
        if worker is None:
            worker = min(self._slots.values(), key=lambda w: len(w.inflight))
        directive = None
        if faults.FAILPOINTS.fires(faults.WORKER_CRASH):
            directive = "crash"
        chunk = self._tasks[task_id].chunk
        if not worker.inflight:
            worker.head_started = time.monotonic()
        worker.inflight.append(task_id)
        worker.tasks.put(("chunk", task_id, token, func, chunk, directive))

    def _reap_hung(self, handle_death: Callable[[int], None]) -> None:
        """Kill and replace workers whose head chunk exceeded its timeout."""
        now = time.monotonic()
        for slot, worker in list(self._slots.items()):
            if (
                worker.inflight
                and worker.head_started is not None
                and now - worker.head_started > self._chunk_timeout
            ):
                worker.process.kill()
                worker.process.join(timeout=1.0)
                handle_death(slot)
                if self._degraded:
                    return

    def _finish_serially(
        self,
        context: Any,
        func: Callable,
        pending: deque[int],
        buffered: dict[int, tuple[str, Any]],
        chunk_iterator: Iterator[Any],
    ) -> Iterator[Any]:
        """Finish a run in-process after the pool degraded mid-stream.

        Results workers already delivered are kept (never recomputed);
        everything else — dispatched-but-lost and not-yet-dispatched
        chunks alike — runs in the parent, still in submission order,
        so the output stream is identical to a no-fault run.
        """
        while pending:
            task_id = pending.popleft()
            if task_id in buffered:
                kind, payload = buffered.pop(task_id)
                if kind == "error":
                    raise payload
                yield payload
                continue
            task = self._tasks.pop(task_id, None)
            assert task is not None, "pending task without a record"
            yield func(context, task.chunk)
        for chunk in chunk_iterator:
            yield func(context, chunk)


#: Unique end-of-iterator marker for :meth:`WorkerPool.imap_chunks`.
_SENTINEL = object()
