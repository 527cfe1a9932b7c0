"""Lifecycle and ordering tests for the persistent worker pool.

The pool is the service layer under parallel pre-processing and
incremental maintenance, so its contract — lazy spawn, reuse across
runs, per-run context broadcast, order-preserving streaming, graceful
(and idempotent) shutdown — is tested directly here, independent of the
summarization stack.
"""

from __future__ import annotations

import time

import pytest

from repro.system.worker_pool import WorkerPool


def scale_chunk(context, chunk):
    """Module-level task (pool workers can only import top-level callables)."""
    return [context["factor"] * value for value in chunk]


def sleepy_chunk(context, chunk):
    """Hold a worker busy for ``chunk`` seconds (broadcast-drain tests)."""
    time.sleep(chunk)
    return chunk


def chunk_stream(chunks):
    """A lazy feed, to prove the pool never needs a materialised list."""
    yield from chunks


CHUNKS = [[1, 2], [3], [4, 5, 6], [7]]
DOUBLED = [[2, 4], [6], [8, 10, 12], [14]]


def run_scaled(pool, factor=2, chunks=CHUNKS):
    return list(pool.imap_chunks({"factor": factor}, scale_chunk, chunk_stream(chunks)))


class TestSerialFallback:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_runs_in_process_without_spawning(self, workers):
        with WorkerPool(workers) as pool:
            assert not pool.parallel
            assert run_scaled(pool) == DOUBLED
            assert not pool.spawned
            assert pool.spawn_count == 0

    def test_results_match_parallel(self):
        with WorkerPool(0) as serial, WorkerPool(2) as parallel:
            assert run_scaled(serial) == run_scaled(parallel)


class TestParallelExecution:
    def test_preserves_submission_order(self):
        with WorkerPool(2) as pool:
            results = run_scaled(pool, factor=3)
        assert results == [[3, 6], [9], [12, 15, 18], [21]]

    def test_many_small_chunks_stay_ordered(self):
        chunks = [[i] for i in range(50)]
        with WorkerPool(2) as pool:
            assert run_scaled(pool, chunks=chunks) == [[2 * i] for i in range(50)]

    def test_spawn_is_lazy(self):
        with WorkerPool(2) as pool:
            assert not pool.spawned
            stream = pool.imap_chunks({"factor": 2}, scale_chunk, chunk_stream(CHUNKS))
            # Building the generator must not spawn either.
            assert not pool.spawned
            assert next(stream) == [2, 4]
            assert pool.spawned
            stream.close()

    def test_reuse_across_runs_spawns_once(self):
        with WorkerPool(2) as pool:
            context = {"factor": 2}
            first = list(pool.imap_chunks(context, scale_chunk, chunk_stream(CHUNKS)))
            second = list(pool.imap_chunks(context, scale_chunk, chunk_stream(CHUNKS)))
            assert first == second == DOUBLED
            assert pool.spawn_count == 1

    def test_context_change_rebroadcasts(self):
        with WorkerPool(2) as pool:
            assert run_scaled(pool, factor=2) == DOUBLED
            assert run_scaled(pool, factor=10) == [[10, 20], [30], [40, 50, 60], [70]]
            assert pool.spawn_count == 1

    def test_early_stop_leaves_pool_usable(self):
        with WorkerPool(2) as pool:
            stream = pool.imap_chunks({"factor": 2}, scale_chunk, chunk_stream(CHUNKS))
            assert next(stream) == [2, 4]
            stream.close()
            assert run_scaled(pool, factor=5) == [[5, 10], [15], [20, 25, 30], [35]]

    def test_abandoned_slow_chunks_do_not_break_next_broadcast(self):
        """The ROADMAP broadcast-timeout edge, as a regression test.

        A chunk abandoned by an early-stopped run may keep a worker
        busy for seconds; the next run's context broadcast must drain
        it instead of terminating and respawning the pool.  The
        abandoned sleeps are *uneven* (1.0 s vs 2.5 s) so one worker
        installs the new context while the other is still busy —
        without the drain, the pool respawns (spawn_count == 2).
        """
        with WorkerPool(2) as pool:
            stream = pool.imap_chunks(
                {"run": 1}, sleepy_chunk, chunk_stream([0.0, 1.0, 2.5, 0.0])
            )
            # Consume one result, so the workers are mid-sleep on the
            # uneven chunks when the run is abandoned.
            assert next(stream) == 0.0
            stream.close()
            # New context => real re-broadcast, which must survive the
            # still-busy workers without breaking the barrier.
            assert run_scaled(pool, factor=5) == [[5, 10], [15], [20, 25, 30], [35]]
            assert pool.spawn_count == 1

    def test_drain_grants_each_abandoned_chunk_its_own_timeout(self):
        """A healthy pool must survive draining several near-timeout
        chunks whose *sum* exceeds one chunk timeout (each chunk's
        individual runtime is within contract)."""
        with WorkerPool(2, chunk_timeout=2.0) as pool:
            stream = pool.imap_chunks(
                {"run": 1}, sleepy_chunk, chunk_stream([0.0, 1.2, 1.2, 1.2, 1.2])
            )
            assert next(stream) == 0.0
            stream.close()  # ~4.8 s of abandoned work vs a 2 s chunk timeout
            assert run_scaled(pool, factor=2) == DOUBLED
            assert pool.spawn_count == 1

    def test_abandoned_failing_chunks_are_drained_quietly(self):
        with WorkerPool(2) as pool:
            stream = pool.imap_chunks(
                {"factor": 2}, scale_chunk, chunk_stream([[1], [None], [None], [2]])
            )
            assert next(stream) == [2]
            stream.close()  # abandons chunks whose tasks raise TypeError
            assert run_scaled(pool, factor=3) == [[3, 6], [9], [12, 15, 18], [21]]
            assert pool.spawn_count == 1


class TestLifecycle:
    def test_context_manager_closes(self):
        with WorkerPool(2) as pool:
            run_scaled(pool)
            assert pool.spawned
        assert not pool.spawned

    def test_double_close_is_idempotent(self):
        pool = WorkerPool(2)
        run_scaled(pool)
        pool.close()
        pool.close()
        assert not pool.spawned

    def test_close_before_spawn_is_a_noop(self):
        pool = WorkerPool(2)
        pool.close()
        assert not pool.spawned
        assert pool.spawn_count == 0

    def test_reuse_after_close_respawns_lazily(self):
        pool = WorkerPool(2)
        assert run_scaled(pool) == DOUBLED
        pool.close()
        assert run_scaled(pool) == DOUBLED
        assert pool.spawn_count == 2
        pool.close()

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(-1)
        with pytest.raises(ValueError, match="lookahead"):
            WorkerPool(2, lookahead=0)
        with pytest.raises(ValueError, match="chunk_timeout"):
            WorkerPool(2, chunk_timeout=0)

    def test_terminate_is_idempotent_and_allows_respawn(self):
        pool = WorkerPool(2)
        run_scaled(pool)
        pool.terminate()
        pool.terminate()
        assert not pool.spawned
        assert run_scaled(pool) == DOUBLED
        assert pool.spawn_count == 2
        pool.close()

    def test_workers_property_reports_configuration(self):
        assert WorkerPool(4).workers == 4
        assert WorkerPool(0).workers == 0
