"""Chaos tests for the supervised worker pool.

The acceptance bar: a run with injected worker crashes (or a real
SIGKILL from outside) streams results *byte-identical* to a no-fault
run, deaths are detected promptly via sentinel watch rather than
timeout expiry, and exhausting the respawn budget degrades the pool to
serial instead of failing the run.
"""

from __future__ import annotations

import os
import signal
import time

from repro.reliability import FAILPOINTS
from repro.system import worker_pool
from repro.system.worker_pool import WorkerPool


def scale_chunk(context, chunk):
    """Module-level task (pool workers can only import top-level callables)."""
    return [context["factor"] * value for value in chunk]


def sleepy_scale_chunk(context, chunk):
    """Scale after holding the worker busy (mid-stream kill tests)."""
    time.sleep(context["sleep"])
    return [context["factor"] * value for value in chunk]


CHUNKS = [[index, index + 1] for index in range(0, 16, 2)]
DOUBLED = [[2 * a, 2 * b] for a, b in CHUNKS]


def run_scaled(pool, chunks=CHUNKS):
    return list(pool.imap_chunks({"factor": 2}, scale_chunk, iter(chunks)))


class TestCrashRecovery:
    def test_crash_failpoint_run_matches_no_fault_run(self):
        with WorkerPool(2) as pool:
            baseline = run_scaled(pool)
        with FAILPOINTS.active(["worker.crash:times=1"]):
            with WorkerPool(2) as pool:
                faulted = run_scaled(pool)
                assert pool.respawn_count == 1
                assert not pool.degraded
                assert pool.parallel  # one crash does not forfeit parallelism
            assert FAILPOINTS.report()["worker.crash"]["fired"] == 1
        assert faulted == baseline == DOUBLED

    def test_repeated_crashes_within_budget_stay_parallel(self):
        with FAILPOINTS.active(["worker.crash:times=2"]):
            with WorkerPool(2) as pool:  # within the budget of 3 respawns
                assert run_scaled(pool) == DOUBLED
                assert pool.respawn_count == 2
                assert not pool.degraded

    def test_sigkill_mid_stream_is_detected_promptly(self):
        """A worker SIGKILLed mid-run (satellite: deterministic kill test).

        ``CHUNK_TIMEOUT_SECONDS`` is an hour — if recovery relied on timeout
        expiry this test could not finish; finishing fast proves the
        parent watches process sentinels and re-dispatches the lost
        chunks on a respawned worker.
        """
        expected = [[3 * a, 3 * b] for a, b in CHUNKS]
        start = time.perf_counter()
        assert worker_pool.CHUNK_TIMEOUT_SECONDS == 3600.0
        with WorkerPool(2) as pool:
            iterator = pool.imap_chunks(
                {"factor": 3, "sleep": 0.2}, sleepy_scale_chunk, iter(CHUNKS)
            )
            results = [next(iterator)]
            # Both workers still hold in-flight chunks here (8 chunks,
            # 2 workers, ~0.2 s each); kill one of them outright.
            victim = pool._slots[0].process
            os.kill(victim.pid, signal.SIGKILL)
            results.extend(iterator)
            elapsed = time.perf_counter() - start
            assert pool.respawn_count == 1
        assert results == expected  # in order, nothing lost or duplicated
        assert elapsed < 20.0  # prompt detection, not the 3600 s timeout

    def test_respawn_budget_exhaustion_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(worker_pool, "MAX_RESPAWNS", 1)
        with FAILPOINTS.active(["worker.crash:times=0"]):  # every dispatch crashes
            with WorkerPool(2) as pool:
                assert run_scaled(pool) == DOUBLED  # finished serially
                assert pool.degraded
                assert not pool.parallel
                assert pool.respawn_count == worker_pool.MAX_RESPAWNS + 1
                # The degraded pool stays usable (now serial, so the
                # crash failpoint is never consulted again).
                assert run_scaled(pool) == DOUBLED

    def test_broadcast_stall_delays_but_preserves_results(self):
        with FAILPOINTS.active(["worker.broadcast_stall:sleep=0.3,times=1"]):
            with WorkerPool(2) as pool:
                start = time.perf_counter()
                assert run_scaled(pool) == DOUBLED
                elapsed = time.perf_counter() - start
                assert pool.respawn_count == 0  # slow is not dead
        assert elapsed >= 0.25  # the stalled worker's chunks waited it out
