"""Retry, backoff and circuit-breaker tests for the maintenance scheduler.

Failure is forced two ways: by monkeypatching ``maintainer.maintain``
(arbitrary counts, no failpoint machinery in the loop) and through the
``maintain.raise`` failpoint (proving the production injection site
fires after the maintainer really appended — rollback and retry then
run against a non-empty table delta).
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.api.errors import MaintenanceUnavailableError
from repro.reliability import FAILPOINTS
from repro.reliability.faults import InjectedFault
from repro.serving import scheduler as scheduler_module
from repro.serving.scheduler import MaintenanceScheduler
from repro.serving.snapshots import SnapshotRegistry
from repro.system.updates import IncrementalMaintainer

from tests.serving.conftest import make_config


def make_scheduler(engine):
    maintainer = IncrementalMaintainer(
        make_config(), engine.table, summarizer=engine.summarizer, realizer=engine.realizer
    )
    registry = SnapshotRegistry(engine.store)
    scheduler = MaintenanceScheduler(maintainer, registry)
    return scheduler, registry, maintainer


def set_policy(monkeypatch, **constants):
    """Set the scheduler's retry/breaker constants for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(scheduler_module, name, value)


def fail_maintain(maintainer, times=None):
    """Make ``maintain`` raise (the first ``times`` calls; None = always)."""
    original = maintainer.maintain
    calls = {"count": 0}

    def flaky(new_rows, store, **kwargs):
        calls["count"] += 1
        if times is None or calls["count"] <= times:
            raise RuntimeError(f"maintenance crashed (call {calls['count']})")
        return original(new_rows, store, **kwargs)

    maintainer.maintain = flaky
    return calls


async def wait_for(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


class TestRetry:
    def test_exhausted_retries_record_dropped_rows(self, engine, append_batch, monkeypatch):
        """Satellite regression: dropped rows are counted, not silent."""
        set_policy(monkeypatch, RETRY_LIMIT=1, BACKOFF_BASE_SECONDS=0.0, BREAKER_THRESHOLD=99)

        async def run():
            scheduler, registry, maintainer = make_scheduler(engine)
            rows_before = maintainer.table.num_rows
            fail_maintain(maintainer)
            scheduler.start()
            scheduler.request_append(append_batch)
            await scheduler.quiesce()
            await scheduler.stop()
            return scheduler, registry, maintainer, rows_before

        scheduler, registry, maintainer, rows_before = asyncio.run(run())
        first, last = scheduler.jobs
        assert (first.status, last.status) == ("failed", "failed")
        assert (first.attempt, last.attempt) == (1, 2)
        # Only the FINAL failed attempt declares the rows dropped.
        assert first.dropped_rows == 0
        assert last.dropped_rows == append_batch.num_rows
        assert scheduler.dropped_rows_total == append_batch.num_rows
        assert scheduler.retry_count == 1
        assert scheduler.retry_successes == 0
        assert registry.version == 0  # nothing was ever published
        assert maintainer.table.num_rows == rows_before  # every attempt rolled back

    def test_retry_waits_for_backoff(self, engine, append_batch, monkeypatch):
        set_policy(monkeypatch, RETRY_LIMIT=3, BACKOFF_BASE_SECONDS=0.3, BREAKER_THRESHOLD=99)

        async def run():
            scheduler, registry, maintainer = make_scheduler(engine)
            fail_maintain(maintainer, times=1)
            scheduler.start()
            start = time.perf_counter()
            scheduler.request_append(append_batch)
            await scheduler.quiesce()
            elapsed = time.perf_counter() - start
            await scheduler.stop()
            return scheduler, registry, elapsed

        scheduler, registry, elapsed = asyncio.run(run())
        failed, retried = scheduler.jobs
        assert failed.status == "failed"
        assert retried.status == "completed"
        assert retried.attempt == 2
        assert scheduler.retry_successes == 1
        assert registry.version == 1
        assert elapsed >= 0.28  # the retry waited out its backoff delay

    def test_stop_without_drain_drops_the_pending_retry(self, engine, append_batch, monkeypatch):
        set_policy(monkeypatch, RETRY_LIMIT=5, BACKOFF_BASE_SECONDS=30.0, BREAKER_THRESHOLD=99)

        async def run():
            scheduler, _, maintainer = make_scheduler(engine)
            fail_maintain(maintainer)
            scheduler.start()
            scheduler.request_append(append_batch)
            await wait_for(lambda: scheduler.retry_pending)
            await scheduler.stop(drain=False)
            return scheduler

        scheduler = asyncio.run(run())
        cancelled = scheduler.jobs[-1]
        # Rows the service accepted and then abandoned mid-retry count
        # as dropped — unlike never-started pending batches.
        assert cancelled.status == "cancelled"
        assert cancelled.dropped_rows == append_batch.num_rows
        assert scheduler.dropped_rows_total == append_batch.num_rows

    def test_maintain_raise_failpoint_drives_a_real_retry(self, engine, append_batch, monkeypatch):
        set_policy(monkeypatch, BACKOFF_BASE_SECONDS=0.0)

        async def run():
            scheduler, registry, maintainer = make_scheduler(engine)
            rows_before = maintainer.table.num_rows
            with FAILPOINTS.active(["maintain.raise:times=1"]):
                scheduler.start()
                scheduler.request_append(append_batch)
                await scheduler.quiesce()
                await scheduler.stop()
            return scheduler, registry, maintainer, rows_before

        scheduler, registry, maintainer, rows_before = asyncio.run(run())
        failed, retried = scheduler.jobs
        assert InjectedFault.__name__ in failed.error
        assert retried.status == "completed"
        assert registry.version == 1
        assert maintainer.table.num_rows == rows_before + append_batch.num_rows


class TestCircuitBreaker:
    def test_breaker_opens_rejects_appends_and_recloses(self, engine, append_batch, monkeypatch):
        set_policy(monkeypatch, RETRY_LIMIT=0, BREAKER_THRESHOLD=2, BREAKER_COOLDOWN_SECONDS=0.2)

        async def run():
            scheduler, registry, maintainer = make_scheduler(engine)
            fail_maintain(maintainer, times=2)
            scheduler.start()
            scheduler.request_append(append_batch)
            await scheduler.quiesce()  # failure 1 (appends must not coalesce)
            assert scheduler.breaker_state == "closed"
            scheduler.request_append(append_batch)
            await scheduler.quiesce()  # failure 2: threshold reached
            assert scheduler.breaker_state == "open"
            assert scheduler.consecutive_failures == 2
            with pytest.raises(MaintenanceUnavailableError):
                scheduler.request_append(append_batch)
            await asyncio.sleep(0.25)  # cooldown elapses
            assert scheduler.breaker_state == "half_open"
            scheduler.request_append(append_batch)  # the half-open probe
            await scheduler.quiesce()  # maintain works again: probe succeeds
            assert scheduler.breaker_state == "closed"
            assert scheduler.consecutive_failures == 0
            await scheduler.stop()
            return registry

        registry = asyncio.run(run())
        assert registry.version == 1  # exactly the probe's append published

    def test_failed_half_open_probe_reopens_the_breaker(self, engine, append_batch, monkeypatch):
        set_policy(monkeypatch, RETRY_LIMIT=0, BREAKER_THRESHOLD=1, BREAKER_COOLDOWN_SECONDS=0.1)

        async def run():
            scheduler, _, maintainer = make_scheduler(engine)
            fail_maintain(maintainer)
            scheduler.start()
            scheduler.request_append(append_batch)
            await scheduler.quiesce()
            assert scheduler.breaker_state == "open"
            await asyncio.sleep(0.15)
            assert scheduler.breaker_state == "half_open"
            scheduler.request_append(append_batch)  # probe, fails again
            await scheduler.quiesce()
            assert scheduler.breaker_state == "open"  # cooldown restarted
            with pytest.raises(MaintenanceUnavailableError):
                scheduler.request_append(append_batch)
            await scheduler.stop()

        asyncio.run(run())
