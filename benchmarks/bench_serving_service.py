"""Smoke: the serving service keeps answering while maintenance runs.

Runs the asyncio :class:`repro.serving.service.VoiceService` over a
synthesized request stream against the flights dataset, in three
phases, and reports qps and tail latency (p50/p95/p99) for each:

* ``serve_with_maintenance`` — the in-process request stream while
  held-out rows are appended through the background maintenance
  scheduler (store-snapshot swaps mid-stream, serving never pauses);
* ``durability`` — the same stream-plus-maintenance workload with the
  write-ahead journal and checkpoints enabled (``data_dir`` set): every
  append is journalled before its ack.  The phase also times a cold
  recovery of the resulting data directory over both paths (newest
  checkpoint + journal suffix, and pure journal replay) and requires
  each recovered store to be byte-identical to the live run's final
  store;
* ``fault_recovery`` — the maintenance workload with a worker crash and
  a maintenance failure injected.

The run self-verifies the serving contract: in every phase no lost
requests and requests completing after the first append
(``completed_during_maintenance``; that a read finishes while a
maintenance pass is held open is pinned by
``tests/serving/test_service.py``), at least one snapshot swap (under
faults, a successful retry), and — the store-parity check — the
post-swap store must be byte-identical to running serial ``maintain``
on the exact batches the scheduler's jobs consumed, in order.  Any
violation exits non-zero.  No figure is gated: wall-clock claims about
serving and maintenance go through ``benchmarks/paired.py``.

Usage::

    python benchmarks/bench_serving_service.py           # full run
    python benchmarks/bench_serving_service.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.api import ServingConfig  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.reliability import FAILPOINTS  # noqa: E402
from repro.serving import VoiceService  # noqa: E402
from repro.system.worker_pool import WorkerPool  # noqa: E402
from repro.serving.workload import (  # noqa: E402
    drive_requests,
    holdout_split,
    serving_questions,
    split_batches,
)
from repro.storage import recover_state  # noqa: E402
from repro.system.config import SummarizationConfig  # noqa: E402
from repro.system.engine import VoiceQueryEngine  # noqa: E402
from repro.system.persistence import (  # noqa: E402
    canonical_store_payload,
    store_to_dict,
)
from repro.system.updates import IncrementalMaintainer  # noqa: E402

SERVING = ServingConfig(concurrency=8, max_queue_depth=128)

#: The fault-recovery phase's chaos: one worker process crash during a
#: pool-parallel maintenance pass, and one maintenance failure after
#: the rows were already appended (exercising rollback + retry).
FAULT_SPECS = ("worker.crash:times=1", "maintain.raise:times=1")


def build_workload(rows: int, requests: int, append_rows: int, passes: int):
    """The pre-processed engine, its questions, and the held-out batches
    keyed by the request index at which each is appended."""
    dataset = load_dataset("flights", num_rows=rows)
    spec = dataset.spec
    config = SummarizationConfig.create(
        table=spec.key,
        dimensions=spec.dimensions,
        targets=spec.targets,
        max_query_length=1,
        algorithm="G-B",
    )
    base, held_out = holdout_split(dataset.table, append_rows)
    engine = VoiceQueryEngine(config, base)
    engine.preprocess()
    questions = serving_questions(engine.store, requests)
    batches = split_batches(held_out, passes)
    append_at = {
        (index + 1) * (len(questions) // (len(batches) + 1)): batch
        for index, batch in enumerate(batches)
    }
    return engine, config, base, questions, append_at


def replay_payload(config, base, jobs) -> str:
    """Serial maintenance on the jobs' exact batches; canonical payload."""
    reference = VoiceQueryEngine(config, base)
    reference.preprocess()
    maintainer = IncrementalMaintainer(
        config, base, summarizer=reference.summarizer, realizer=reference.realizer
    )
    for job in jobs:
        maintainer.maintain(job.new_rows, reference.store)
    return json.dumps(store_to_dict(reference.store), sort_keys=True)


def run(rows: int, requests: int, append_rows: int, passes: int) -> dict:
    engine, config, base, questions, append_at = build_workload(
        rows, requests, append_rows, passes
    )

    outstanding = SERVING.max_queue_depth // 2

    async def bench():
        async with VoiceService(engine, SERVING) as service:
            # Warm-up: populate realizer/parse caches outside measurement.
            await drive_requests(
                service,
                questions[: min(64, len(questions))],
                max_outstanding=outstanding,
            )

            service.metrics.reset()
            start = time.perf_counter()
            with_maintenance, completed_during = await drive_requests(
                service, questions, append_at, max_outstanding=outstanding
            )
            with_maintenance["wall_seconds"] = time.perf_counter() - start
            jobs = list(service.scheduler.jobs)
            final_store = service.registry.current.store
        return with_maintenance, completed_during, jobs, final_store

    with_maintenance, completed_during, jobs, final_store = asyncio.run(bench())

    with_maintenance["snapshot_swaps"] = len(
        [job for job in jobs if job.status == "completed"]
    )
    with_maintenance["completed_during_maintenance"] = completed_during
    with_maintenance["maintenance_seconds"] = sum(job.seconds for job in jobs)
    with_maintenance["jobs"] = [
        {
            "index": job.index,
            "status": job.status,
            "batches": job.batches,
            "rows": job.new_rows.num_rows,
            "rebuilt_speeches": job.report.rebuilt_speeches if job.report else None,
            "seconds": job.seconds,
        }
        for job in jobs
    ]

    store_parity = (
        json.dumps(store_to_dict(final_store), sort_keys=True)
        == replay_payload(config, base, jobs)
    )
    return {
        "workload": {
            "dataset": "flights",
            "rows": rows,
            "requests": requests,
            "append_rows": append_rows,
            "maintenance_passes": len(append_at),
            "serving_config": SERVING.to_dict(),
            "speeches": len(engine.store),
        },
        "serve_with_maintenance": with_maintenance,
        "store_parity": store_parity,
    }


def run_durability(rows: int, requests: int, append_rows: int, passes: int) -> dict:
    """The maintenance workload with the journal on, plus cold recovery.

    With ``data_dir`` set every append is journalled, and every swap
    publishes its snapshot under it and checkpoints it.  After the
    service stops cleanly, the data directory is recovered cold on both
    paths — checkpoint + journal suffix, and pure journal replay from
    the pre-processed base — each timed and required to be
    byte-identical to the live run's final store.
    """
    import tempfile

    engine, config, base, questions, append_at = build_workload(
        rows, requests, append_rows, passes
    )
    outstanding = SERVING.max_queue_depth // 2

    with tempfile.TemporaryDirectory(prefix="repro-durability-") as data_dir:
        serving = SERVING.replace(data_dir=data_dir)

        async def bench():
            async with VoiceService(engine, serving) as service:
                await drive_requests(
                    service,
                    questions[: min(64, len(questions))],
                    max_outstanding=outstanding,
                )
                service.metrics.reset()
                start = time.perf_counter()
                summary, completed_during = await drive_requests(
                    service, questions, append_at, max_outstanding=outstanding
                )
                summary["wall_seconds"] = time.perf_counter() - start
                await service.scheduler.quiesce()
                jobs = list(service.scheduler.jobs)
                stats = service.durability.stats()
                payload = canonical_store_payload(service.registry.current.store)
            return summary, completed_during, jobs, stats, payload

        summary, completed_during, jobs, stats, live_payload = asyncio.run(bench())

        # Cold recovery: a fresh process rebuilds the base engine (the
        # deterministic pre-processing a restart would run) and recovers
        # the data directory over both paths.
        reference = VoiceQueryEngine(config, base)
        reference.preprocess()

        def recover(use_checkpoint: bool):
            start = time.perf_counter()
            recovered = recover_state(
                data_dir,
                config,
                base_store=reference.store,
                base_table=reference.table,
                summarizer=reference.summarizer,
                realizer=reference.realizer,
                use_checkpoint=use_checkpoint,
            )
            return recovered, time.perf_counter() - start

        from_checkpoint, checkpoint_seconds = recover(use_checkpoint=True)
        from_journal, journal_seconds = recover(use_checkpoint=False)

    summary["completed_during_maintenance"] = completed_during
    summary["snapshot_swaps"] = len(
        [job for job in jobs if job.status == "completed"]
    )
    summary["journal_bytes"] = stats["journal_bytes"]
    summary["journalled_batches"] = stats["next_seq"] - 1
    summary["checkpoints_written"] = stats["checkpoints_written"]
    summary["checkpoint_failures"] = stats["checkpoint_failures"]
    summary["recovery"] = {
        "checkpoint_seconds": checkpoint_seconds,
        "checkpoint_replayed_records": from_checkpoint.replayed_records,
        "journal_replay_seconds": journal_seconds,
        "journal_replayed_records": from_journal.replayed_records,
    }
    summary["store_parity"] = (
        canonical_store_payload(from_checkpoint.store) == live_payload
        and canonical_store_payload(from_journal.store) == live_payload
    )
    return summary


def run_fault_recovery(rows: int, requests: int, append_rows: int, passes: int) -> dict:
    """Serve + maintain with injected faults; the recovery contract.

    A full benchmark pass with the :data:`FAULT_SPECS` failpoints armed
    (fixed seed, so the chaos replays identically): the worker pool
    loses a process mid-maintenance and the first maintenance attempt
    fails after appending.  Its checks are correctness: zero lost
    requests, at least one successful retry, and the post-swap store
    byte-identical to serial maintenance on the *completed* jobs' exact
    batches.
    """
    engine, config, base, questions, append_at = build_workload(
        rows, requests, append_rows, passes
    )
    serving = SERVING  # the scheduler's retry policy: 3 retries, 0.05 s backoff base
    pool = WorkerPool(2)  # the crash needs a pool to crash in

    async def bench():
        async with VoiceService(engine, serving, pool=pool) as service:
            start = time.perf_counter()
            summary, completed_during = await drive_requests(
                service, questions, append_at,
                max_outstanding=serving.max_queue_depth // 2,
            )
            await service.scheduler.quiesce()  # let the retry land
            wall = time.perf_counter() - start
            return (
                summary, completed_during, wall,
                list(service.scheduler.jobs), service.reliability(),
                service.registry.current.store,
            )

    try:
        # Armed only for the serving run — pre-processing above was
        # fault-free, like the no-fault phases it is compared against.
        with FAILPOINTS.active(FAULT_SPECS, seed=0):
            summary, completed_during, wall, jobs, reliability, final_store = (
                asyncio.run(bench())
            )
            fired = FAILPOINTS.report()
    finally:
        pool.close()

    completed_jobs = [job for job in jobs if job.status == "completed"]
    summary["wall_seconds"] = wall
    summary["completed_during_maintenance"] = completed_during
    summary["failpoints"] = fired
    summary["reliability"] = reliability
    # Extra time paid to recover: every failed attempt, plus the
    # retry attempts that finally published.
    summary["recovery_seconds"] = sum(
        job.seconds for job in jobs if job.status != "completed" or job.attempt > 1
    )
    summary["jobs"] = [
        {
            "index": job.index,
            "status": job.status,
            "attempt": job.attempt,
            "rows": job.new_rows.num_rows,
            "dropped_rows": job.dropped_rows,
            "seconds": job.seconds,
        }
        for job in jobs
    ]
    summary["store_parity"] = (
        json.dumps(store_to_dict(final_store), sort_keys=True)
        == replay_payload(config, base, completed_jobs)
    )
    return summary


def verify(report: dict) -> list[str]:
    """Self-checks; any failure makes the run exit non-zero."""
    problems = []
    maintenance = report["serve_with_maintenance"]
    if not report["store_parity"]:
        problems.append(
            "post-swap store differs from serial maintenance on the same batches"
        )
    if maintenance["errors"] or maintenance["rejected"]:
        problems.append(
            f"serve_with_maintenance: {maintenance['errors']} errors, "
            f"{maintenance['rejected']} rejected requests"
        )
    for phase in ("serve_with_maintenance", "durability", "fault_recovery"):
        if report[phase]["completed_during_maintenance"] < 1:
            problems.append(f"{phase}: no request completed after the first append")
    if maintenance["snapshot_swaps"] < 1:
        problems.append("no maintenance job completed (no snapshot swap)")
    failed = [job for job in maintenance["jobs"] if job["status"] != "completed"]
    if failed:
        problems.append(f"{len(failed)} maintenance jobs did not complete")

    durability = report["durability"]
    if not durability["store_parity"]:
        problems.append(
            "durability: a cold-recovered store differs from the live run's "
            "final store"
        )
    if durability["errors"] or durability["rejected"]:
        problems.append(
            f"durability: {durability['errors']} errors, "
            f"{durability['rejected']} rejected requests with the journal on"
        )
    if durability["snapshot_swaps"] < 1:
        problems.append("durability: no maintenance job completed")
    if durability["checkpoints_written"] < 1 or durability["checkpoint_failures"]:
        problems.append(
            f"durability: {durability['checkpoints_written']} checkpoints "
            f"written, {durability['checkpoint_failures']} failed"
        )
    if durability["recovery"]["checkpoint_replayed_records"]:
        problems.append(
            "durability: the clean-stop checkpoint did not cover the journal "
            f"({durability['recovery']['checkpoint_replayed_records']} records "
            "replayed)"
        )

    chaos = report["fault_recovery"]
    lost = (
        chaos["errors"]
        + chaos["rejected"]
        + (report["workload"]["requests"] - chaos["completed"])
    )
    if lost:
        problems.append(f"fault_recovery: {lost} requests lost under injected faults")
    if chaos["reliability"]["maintenance_retry_successes"] < 1:
        problems.append("fault_recovery: no maintenance retry succeeded")
    if chaos["reliability"]["maintenance_dropped_rows"]:
        problems.append(
            f"fault_recovery: {chaos['reliability']['maintenance_dropped_rows']} "
            "appended rows dropped"
        )
    if chaos["reliability"]["worker_respawns"] < 1:
        problems.append("fault_recovery: the injected worker crash never happened")
    if not chaos["store_parity"]:
        problems.append(
            "fault_recovery: post-recovery store differs from serial maintenance "
            "on the completed jobs' batches"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1200)
    parser.add_argument("--requests", type=int, default=4000)
    parser.add_argument("--append-rows", type=int, default=120, dest="append_rows")
    parser.add_argument(
        "--passes", type=int, default=2, help="background maintenance passes"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload for CI smoke runs",
    )
    parser.add_argument("--output", default=None, help="also write the JSON to a file")
    args = parser.parse_args(argv)

    if args.quick:
        workload = dict(rows=300, requests=2000, append_rows=30, passes=2)
    else:
        workload = dict(
            rows=args.rows,
            requests=args.requests,
            append_rows=args.append_rows,
            passes=args.passes,
        )
    report = run(**workload)
    report["durability"] = run_durability(**workload)
    report["fault_recovery"] = run_fault_recovery(**workload)

    text = json.dumps(report, indent=2)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")

    problems = verify(report)
    if problems:
        for problem in problems:
            print(f"ERROR: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
