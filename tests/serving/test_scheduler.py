"""Lifecycle tests for the background maintenance scheduler.

Timing-sensitive behavior (coalescing, shutdown mid-job) is made
deterministic with a gated maintainer: the first maintenance pass
blocks on an event the test releases once it has queued more work.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serving.scheduler import MaintenanceScheduler
from repro.serving.snapshots import SnapshotRegistry
from repro.system.updates import IncrementalMaintainer

from tests.serving.conftest import make_config


class GatedMaintainer(IncrementalMaintainer):
    """A maintainer whose passes wait for the test to open a gate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.started = threading.Event()
        self.calls = 0

    def maintain(self, new_rows, store, **kwargs):
        self.calls += 1
        self.started.set()
        assert self.gate.wait(timeout=30.0), "test never opened the gate"
        self.started.clear()
        return super().maintain(new_rows, store, **kwargs)


def make_scheduler(engine, gated: bool = False):
    maintainer_class = GatedMaintainer if gated else IncrementalMaintainer
    maintainer = maintainer_class(
        make_config(), engine.table, summarizer=engine.summarizer, realizer=engine.realizer
    )
    registry = SnapshotRegistry(engine.store)
    return MaintenanceScheduler(maintainer, registry), registry, maintainer


async def wait_for(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


class TestLifecycle:
    def test_start_stop_idle(self, engine):
        async def run():
            scheduler, registry, _ = make_scheduler(engine)
            scheduler.start()
            assert scheduler.running
            await scheduler.quiesce()
            await scheduler.stop()
            assert not scheduler.running
            assert registry.version == 0
            assert scheduler.jobs == ()

        asyncio.run(run())

    def test_append_before_start_rejected(self, engine, append_batches):
        async def run():
            scheduler, _, _ = make_scheduler(engine)
            with pytest.raises(RuntimeError):
                scheduler.request_append(append_batches[0])

        asyncio.run(run())

    def test_empty_append_is_ignored(self, engine, append_batches):
        async def run():
            scheduler, registry, _ = make_scheduler(engine)
            scheduler.start()
            empty = append_batches[0].mask([False, False])
            scheduler.request_append(empty)
            await scheduler.quiesce()
            await scheduler.stop()
            assert scheduler.jobs == ()
            assert registry.version == 0

        asyncio.run(run())

    def test_single_job_swaps_snapshot(self, engine, append_batches):
        async def run():
            scheduler, registry, _ = make_scheduler(engine)
            scheduler.start()
            before = registry.current
            scheduler.request_append(append_batches[0])
            await scheduler.quiesce()
            await scheduler.stop()
            (job,) = scheduler.jobs
            assert job.status == "completed"
            assert job.batches == 1
            assert job.report.new_rows == append_batches[0].num_rows
            assert job.snapshot_version == 1
            assert registry.version == 1
            assert registry.current.store is not before.store
            assert len(registry.current) >= len(before)

        asyncio.run(run())


class TestCoalescing:
    def test_batches_queued_during_job_coalesce(self, engine, append_batches):
        async def run():
            scheduler, registry, maintainer = make_scheduler(engine, gated=True)
            scheduler.start()
            scheduler.request_append(append_batches[0])
            await wait_for(maintainer.started.is_set)
            # Two more batches arrive while job 1 is mid-maintenance:
            # they must coalesce into exactly one follow-up job.
            extra = append_batches[1]
            one_row = extra.mask([True] + [False] * (extra.num_rows - 1))
            rest = extra.mask([False] + [True] * (extra.num_rows - 1))
            scheduler.request_append(one_row)
            scheduler.request_append(rest)
            maintainer.gate.set()
            await scheduler.quiesce()
            await scheduler.stop()
            first, second = scheduler.jobs
            assert (first.status, second.status) == ("completed", "completed")
            assert first.batches == 1
            assert second.batches == 2
            assert second.report.new_rows == extra.num_rows
            assert [job.snapshot_version for job in scheduler.jobs] == [1, 2]
            assert registry.version == 2
            assert maintainer.calls == 2

        asyncio.run(run())


class TestFailedJob:
    def test_failed_job_rolls_back_table_and_retry_recovers(
        self, engine, append_batches
    ):
        async def run():
            scheduler, registry, maintainer = make_scheduler(engine)
            rows_before = maintainer.table.num_rows
            calls = {"count": 0}
            original = maintainer.maintain

            def flaky(new_rows, store, **kwargs):
                calls["count"] += 1
                if calls["count"] == 1:
                    raise RuntimeError("pool worker died")
                return original(new_rows, store, **kwargs)

            maintainer.maintain = flaky
            scheduler.start()
            scheduler.request_append(append_batches[0])
            await scheduler.quiesce()
            await scheduler.stop()
            failed, retried = scheduler.jobs
            assert failed.status == "failed"
            assert "pool worker died" in failed.error
            assert failed.snapshot_version is None  # nothing was published
            # maintain() concats before re-summarizing; the failure
            # rolled that back, then the scheduler retried the exact
            # payload on its own — no rows lost, no manual re-append.
            assert (failed.attempt, retried.attempt) == (1, 2)
            assert failed.dropped_rows == 0
            assert retried.status == "completed"
            assert (failed.index, retried.index) == (1, 2)
            assert scheduler.retry_count == 1
            assert scheduler.retry_successes == 1
            assert scheduler.dropped_rows_total == 0
            assert scheduler.breaker_state == "closed"
            assert registry.version == 1
            assert maintainer.table.num_rows == rows_before + append_batches[0].num_rows

        asyncio.run(run())


class TestShutdownMidJob:
    def test_stop_waits_for_inflight_job(self, engine, append_batches):
        async def run():
            scheduler, registry, maintainer = make_scheduler(engine, gated=True)
            scheduler.start()
            scheduler.request_append(append_batches[0])
            await wait_for(maintainer.started.is_set)
            stopper = asyncio.get_running_loop().create_task(scheduler.stop())
            await asyncio.sleep(0.02)
            assert not stopper.done()  # stop waits on the in-flight job
            maintainer.gate.set()
            await stopper
            (job,) = scheduler.jobs
            assert job.status == "completed"
            assert registry.version == 1  # the job's swap happened

        asyncio.run(run())

    def test_stop_without_drain_cancels_queued_batches(self, engine, append_batches):
        async def run():
            scheduler, registry, maintainer = make_scheduler(engine, gated=True)
            scheduler.start()
            scheduler.request_append(append_batches[0])
            await wait_for(maintainer.started.is_set)
            scheduler.request_append(append_batches[1])
            stopper = asyncio.get_running_loop().create_task(
                scheduler.stop(drain=False)
            )
            await asyncio.sleep(0.02)
            maintainer.gate.set()
            await stopper
            finished, cancelled = scheduler.jobs
            assert finished.status == "completed"
            assert cancelled.status == "cancelled"
            # The in-flight job keeps its earlier, unique index.
            assert (finished.index, cancelled.index) == (1, 2)
            assert registry.version == 1  # cancelled batch never swapped
            assert maintainer.calls == 1
            with pytest.raises(RuntimeError):
                scheduler.request_append(append_batches[1])

        asyncio.run(run())

    def test_stop_with_drain_runs_queued_batches(self, engine, append_batches):
        async def run():
            scheduler, registry, maintainer = make_scheduler(engine, gated=True)
            maintainer.gate.set()  # only gate ordering, not blocking
            scheduler.start()
            scheduler.request_append(append_batches[0])
            scheduler.request_append(append_batches[1])
            await scheduler.stop(drain=True)
            assert all(job.status == "completed" for job in scheduler.jobs)
            total_rows = sum(job.report.new_rows for job in scheduler.jobs)
            assert total_rows == sum(batch.num_rows for batch in append_batches)
            assert registry.version == len(scheduler.jobs)

        asyncio.run(run())
