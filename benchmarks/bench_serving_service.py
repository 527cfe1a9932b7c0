"""Benchmark: serving-service throughput with and without maintenance.

Runs the asyncio :class:`repro.serving.service.VoiceService` over a
synthesized request stream against the flights dataset and measures
sustained qps and tail latency (p50/p95/p99) in two phases:

* ``serve_only`` — requests only, no background work;
* ``http`` — the same request stream end-to-end through the public
  API: an :class:`repro.api.clients.HttpClient` speaking to a
  :class:`repro.api.http_server.VoiceHttpServer` over real sockets
  (keep-alive connection pool), so the measured latency prices in
  envelope encoding and HTTP framing on both sides;
* ``serve_with_maintenance`` — the in-process request stream while
  held-out rows are appended through the background maintenance
  scheduler (store-snapshot swaps mid-stream, serving never pauses);
* ``sharded`` — the HTTP workload against the multi-process tier at
  1, 2 and 4 shards.  The measured process runs only the server; the
  request stream comes from *spawned client worker processes*, so
  neither client-side encoding nor shard work shares the server's
  core.  The 1-shard rung is the plain single-process
  ``VoiceService`` behind the HTTP front-end (no router), making
  ``sharded.throughput_ratio`` = 2-shard qps / single-process qps the
  "sharding buys real throughput" claim.  The phase self-verifies
  session affinity through the router, and — after a broadcast append
  through the 2-shard manager — that every shard serves the same
  snapshot version with a byte-identical store (the version barrier);
* ``durability`` — the same stream-plus-maintenance workload with the
  write-ahead journal and checkpoints enabled (``data_dir`` set): every
  append is journalled before its ack.  The phase also times a cold
  recovery of the resulting data directory over both paths (newest
  checkpoint + journal suffix, and pure journal replay) and requires
  each recovered store to be byte-identical to the live run's final
  store.

The run self-verifies the serving contract: no request errors on any
phase (HTTP included), at least one snapshot swap, requests completing
*while* maintenance is in flight, and — the store-parity check — the
post-swap store must be byte-identical to running serial ``maintain``
on the exact batches the scheduler's jobs consumed, in order.  Any
violation exits non-zero.

Four regression metrics are gated, all same-machine ratios that are
comparatively stable across runners: ``throughput_ratio`` (qps with
maintenance / qps without — the "serving continues" claim),
``http.throughput_ratio`` (HTTP qps / in-process qps — the "envelope +
transport layer stays cheap" claim), ``durability.throughput_ratio``
(qps with the journal on / qps with it off — the "durability stays
cheap" claim) and ``sharded.throughput_ratio`` (2-shard HTTP qps /
single-process HTTP qps under external client processes — the
"sharding buys real throughput" claim, required >= 1.6x on runners
with at least :data:`MIN_SCALING_CORES` cores; on smaller machines
multi-process scaling is physically unavailable, so the phase instead
floors the relay tax and keeps the correctness probes gated).

Usage::

    python benchmarks/bench_serving_service.py           # full run
    python benchmarks/bench_serving_service.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.api import (  # noqa: E402
    HttpClient,
    ServingConfig,
    VoiceHttpServer,
    VoiceRequest,
)
from repro.datasets import load_dataset  # noqa: E402
from repro.reliability import FAILPOINTS  # noqa: E402
from repro.serving import ShardManager, VoiceService  # noqa: E402
from repro.system.worker_pool import WorkerPool  # noqa: E402
from repro.serving.workload import (  # noqa: E402
    drive_client,
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


def build_engine(rows: int, append_rows: int):
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
    return engine, config, base, held_out


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
    engine, config, base, held_out = build_engine(rows, append_rows)
    questions = serving_questions(engine.store, requests)
    batches = split_batches(held_out, passes)
    append_at = {
        (index + 1) * (len(questions) // (len(batches) + 1)): batch
        for index, batch in enumerate(batches)
    }

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
            serve_only, _ = await drive_requests(
                service, questions, max_outstanding=outstanding
            )
            serve_only["wall_seconds"] = time.perf_counter() - start

            # End-to-end over the public HTTP API: same questions, same
            # process, but every request crosses envelope encoding, a
            # real socket and the server's HTTP parsing.
            service.metrics.reset()
            async with VoiceHttpServer(service) as server:
                async with HttpClient(
                    server.host, server.port, max_connections=SERVING.concurrency
                ) as client:
                    http = await drive_client(
                        client, questions, max_outstanding=outstanding
                    )

            service.metrics.reset()
            start = time.perf_counter()
            with_maintenance, completed_during = await drive_requests(
                service, questions, append_at, max_outstanding=outstanding
            )
            with_maintenance["wall_seconds"] = time.perf_counter() - start
            jobs = list(service.scheduler.jobs)
            final_store = service.registry.current.store
        return serve_only, http, with_maintenance, completed_during, jobs, final_store

    serve_only, http, with_maintenance, completed_during, jobs, final_store = (
        asyncio.run(bench())
    )
    http["throughput_ratio"] = http["qps"] / serve_only["qps"] if serve_only["qps"] else 0.0

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
            "maintenance_passes": len(batches),
            "serving_config": SERVING.to_dict(),
            "speeches": len(engine.store),
        },
        "serve_only": serve_only,
        "http": http,
        "serve_with_maintenance": with_maintenance,
        "throughput_ratio": with_maintenance["qps"] / serve_only["qps"],
        "p99_ratio": (
            with_maintenance["p99_ms"] / serve_only["p99_ms"]
            if serve_only["p99_ms"]
            else 0.0
        ),
        "store_parity": store_parity,
    }


#: Client processes (and keep-alive connections each) that drive the
#: sharded phase.  Spawned, not threaded: the measured process must run
#: only the server, or client-side encoding would share its core and
#: flatten the scaling curve.
CLIENT_PROCS = 4
CLIENT_CONNECTIONS = 8

#: Cores needed before the 2-shard >= 1.6x single-process claim is
#: enforced: router, two shards and at least one client each need a
#: core of their own, or the rungs just time-share one CPU and the
#: relay hop can only cost throughput (total CPU per request is
#: strictly higher through the router).  Below this the phase still
#: runs — correctness probes and the floor on the relay tax stay
#: gated — and the report records why the scaling claim was skipped.
MIN_SCALING_CORES = 4

#: On runners without enough cores for real parallelism the ratio
#: still may not collapse below this: the router's relay must stay
#: cheap even when it buys nothing.
MIN_RELAY_RATIO = 0.4


def _sharded_client_worker(host, port, questions, conns, pipe) -> None:
    """Spawned client: wait for ``go``, drive the stream, report back.

    The ready/go handshake keeps interpreter start-up and import time
    out of the measured window — the parent starts the clock only
    after every worker reported ready.
    """
    pipe.send("ready")
    pipe.recv()  # the go signal

    async def drive():
        async with HttpClient(host, port, max_connections=conns) as client:
            return await drive_client(client, questions, max_outstanding=conns * 2)

    pipe.send(asyncio.run(drive()))
    pipe.close()


def _external_http_qps(host: str, port: int, questions: list[str]) -> dict:
    """Aggregate qps of spawned client workers against one server.

    Blocking — run it in an executor so the server's event loop keeps
    serving while the clients hammer it.  The wall clock spans go to
    last summary, so qps prices in every request of every worker.
    """
    ctx = multiprocessing.get_context("spawn")
    workers, pipes = [], []
    for chunk in (questions[index::CLIENT_PROCS] for index in range(CLIENT_PROCS)):
        parent_pipe, child_pipe = ctx.Pipe()
        worker = ctx.Process(
            target=_sharded_client_worker,
            args=(host, port, chunk, CLIENT_CONNECTIONS, child_pipe),
            daemon=True,
        )
        worker.start()
        child_pipe.close()
        workers.append(worker)
        pipes.append(parent_pipe)
    try:
        for pipe in pipes:
            if pipe.recv() != "ready":  # pragma: no cover - defensive
                raise RuntimeError("sharded client worker failed to start")
        start = time.perf_counter()
        for pipe in pipes:
            pipe.send("go")
        summaries = [pipe.recv() for pipe in pipes]
        wall = time.perf_counter() - start
    finally:
        for worker in workers:
            worker.join(timeout=30)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.kill()
    completed = sum(summary["completed"] for summary in summaries)
    aggregated = {
        "completed": completed,
        "errors": sum(summary["errors"] for summary in summaries),
        "wall_seconds": wall,
        "qps": completed / wall if wall > 0 else 0.0,
    }
    for key in ("p50_ms", "p95_ms", "p99_ms"):
        weighted = sum(s[key] * s["completed"] for s in summaries)
        aggregated[key] = weighted / completed if completed else 0.0
    return aggregated


def _process_rss_bytes(pid: int | None) -> int | None:
    """One process's resident set, from ``/proc`` (None off-Linux)."""
    if pid is None:
        return None
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def run_sharded(rows: int, requests: int, append_rows: int, passes: int) -> dict:
    """HTTP qps at 1/2/4 shards plus the sharded correctness probes.

    The parent engine is never mutated: shards attach a frozen copy of
    its store and the broadcast append lands only in the shard processes
    and the single-process reference, so each rung starts from
    identical state.
    """
    del passes  # the broadcast append goes out as one batch
    engine, config, base, held_out = build_engine(rows, append_rows)
    questions = serving_questions(engine.store, requests)
    warmup = questions[: min(128, len(questions))]
    phases: dict[str, dict] = {}
    checks: dict = {}

    async def measure(backend) -> dict:
        async with VoiceHttpServer(backend) as server:
            # Warm parse/realizer caches (round-robin reaches every
            # shard) and the router's connection pools from the parent,
            # outside the measured window.
            async with HttpClient(
                server.host, server.port, max_connections=CLIENT_CONNECTIONS
            ) as client:
                await drive_client(client, warmup, max_outstanding=CLIENT_CONNECTIONS)
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None,
                functools.partial(
                    _external_http_qps, server.host, server.port, questions
                ),
            )

    async def single_process() -> dict:
        async with VoiceService(engine, SERVING) as service:
            return await measure(service)

    async def sharded(shard_count: int) -> dict:
        serving = SERVING.replace(shards=shard_count)
        async with ShardManager(engine, serving) as manager:
            summary = await measure(manager)
            if shard_count != 2:
                return summary
            # Spawn cost and correctness probes ride on the gated
            # 2-shard rung: the store-free template each shard unpickles,
            # the snapshot file every shard maps, and the shards' RSS.
            stats = manager.spawn_stats()
            spawn_seconds = stats["spawn_seconds"]
            rss = [_process_rss_bytes(pid) for pid in manager.shard_pids()]
            checks["spawn"] = {
                "template_bytes": stats["template_bytes"],
                "snapshot_bytes": stats.get("snapshot_bytes", 0),
                "spawn_seconds_mean": sum(spawn_seconds) / len(spawn_seconds),
                "aggregate_shard_rss_bytes": sum(r for r in rss if r is not None),
            }
            first = await manager.submit(
                VoiceRequest(text=questions[0], session_id="bench-affinity")
            )
            again = await manager.submit(
                VoiceRequest(text="repeat", session_id="bench-affinity")
            )
            described = await manager.describe_session("bench-affinity")
            checks["session_affinity"] = (
                again.text == first.text
                and described is not None
                and described.get("requests") == 2
            )
            batch = manager.build_append_table(held_out.to_dicts())
            await manager.request_append(batch)
            digests = await manager.store_digest()
            checks["snapshot_version"] = manager.version
            checks["barrier_consistent"] = digests["consistent"]
            checks["shard_digests"] = sorted(set(digests["digests"].values()))
            return summary

    phases["1"] = asyncio.run(single_process())
    phases["2"] = asyncio.run(sharded(2))
    phases["4"] = asyncio.run(sharded(4))

    # Byte-parity oracle for the broadcast append: a single-process
    # service consuming the identical batch must reach the same store.
    async def reference_digest() -> str:
        reference = VoiceQueryEngine(config, base)
        reference.preprocess()
        async with VoiceService(reference) as service:
            service.request_append(held_out)
            await service.scheduler.quiesce()
            return service.store_digest()["digest"]

    oracle = asyncio.run(reference_digest())
    checks["store_parity"] = (
        checks.get("barrier_consistent", False)
        and checks.get("shard_digests") == [oracle]
    )

    cores = os.cpu_count() or 1
    report = {
        "client_procs": CLIENT_PROCS,
        "connections_per_proc": CLIENT_CONNECTIONS,
        "cpu_cores": cores,
        "scaling_claim": (
            "gated"
            if cores >= MIN_SCALING_CORES
            else f"skipped: {cores} CPU core(s) < {MIN_SCALING_CORES}"
        ),
        "phases": phases,
        "shard_qps": {count: phase["qps"] for count, phase in phases.items()},
        "throughput_ratio": (
            phases["2"]["qps"] / phases["1"]["qps"] if phases["1"]["qps"] else 0.0
        ),
        "scaling_4x": (
            phases["4"]["qps"] / phases["1"]["qps"] if phases["1"]["qps"] else 0.0
        ),
    }
    report.update(checks)
    return report


def run_durability(
    rows: int, requests: int, append_rows: int, passes: int, baseline_qps: float
) -> dict:
    """The maintenance workload with the journal on, plus cold recovery.

    ``throughput_ratio`` prices the write-ahead journal: qps of the
    identical stream-plus-appends workload with ``data_dir`` set /
    ``serve_with_maintenance``'s qps without it; with ``data_dir`` set
    every swap publishes its snapshot under it and checkpoints it.
    After the service stops cleanly, the data directory is
    recovered cold on both paths — checkpoint + journal suffix, and
    pure journal replay from the pre-processed base — each timed and
    required to be byte-identical to the live run's final store.
    """
    import tempfile

    engine, config, base, held_out = build_engine(rows, append_rows)
    questions = serving_questions(engine.store, requests)
    batches = split_batches(held_out, passes)
    append_at = {
        (index + 1) * (len(questions) // (len(batches) + 1)): batch
        for index, batch in enumerate(batches)
    }
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

    summary["throughput_ratio"] = (
        summary["qps"] / baseline_qps if baseline_qps else 0.0
    )
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
    fails after appending.  The phase is not regression-gated on
    throughput — its gates are correctness: zero lost requests, at
    least one successful retry, and the post-swap store byte-identical
    to serial maintenance on the *completed* jobs' exact batches.
    """
    engine, config, base, held_out = build_engine(rows, append_rows)
    questions = serving_questions(engine.store, requests)
    batches = split_batches(held_out, passes)
    append_at = {
        (index + 1) * (len(questions) // (len(batches) + 1)): batch
        for index, batch in enumerate(batches)
    }
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
    for phase in ("serve_only", "serve_with_maintenance"):
        if report[phase]["errors"]:
            problems.append(f"{phase}: {report[phase]['errors']} request errors")
        if report[phase]["rejected"]:
            problems.append(f"{phase}: {report[phase]['rejected']} rejected requests")
    if report["http"]["errors"]:
        problems.append(f"http: {report['http']['errors']} client-side request errors")
    if report["http"]["completed"] != report["workload"]["requests"]:
        problems.append(
            f"http: only {report['http']['completed']} of "
            f"{report['workload']['requests']} requests completed"
        )
    if maintenance["snapshot_swaps"] < 1:
        problems.append("no maintenance job completed (no snapshot swap)")
    failed = [job for job in maintenance["jobs"] if job["status"] != "completed"]
    if failed:
        problems.append(f"{len(failed)} maintenance jobs did not complete")

    sharded = report["sharded"]
    for count, phase in sharded["phases"].items():
        if phase["errors"]:
            problems.append(
                f"sharded[{count}]: {phase['errors']} client-side request errors"
            )
        if phase["completed"] != report["workload"]["requests"]:
            problems.append(
                f"sharded[{count}]: only {phase['completed']} of "
                f"{report['workload']['requests']} requests completed"
            )
    if not sharded["session_affinity"]:
        problems.append(
            "sharded: session requests did not stay on one shard "
            "(repeat/describe through the router failed)"
        )
    if not sharded["store_parity"]:
        problems.append(
            "sharded: post-barrier shard stores are not byte-identical to "
            "the single-process reference"
        )
    if sharded["snapshot_version"] != 1:
        problems.append(
            "sharded: broadcast append did not advance every shard to "
            f"version 1 (router saw {sharded['snapshot_version']})"
        )
    if sharded["scaling_claim"] == "gated":
        if sharded["throughput_ratio"] < 1.6:
            problems.append(
                f"sharded: 2-shard qps is only {sharded['throughput_ratio']:.2f}x "
                "the single-process qps (claim requires >= 1.6x)"
            )
    elif sharded["throughput_ratio"] < MIN_RELAY_RATIO:
        problems.append(
            f"sharded: relay tax too high — 2-shard qps fell to "
            f"{sharded['throughput_ratio']:.2f}x single-process on a "
            f"{sharded['cpu_cores']}-core runner (floor {MIN_RELAY_RATIO})"
        )

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
    report["sharded"] = run_sharded(**workload)
    report["durability"] = run_durability(
        **workload, baseline_qps=report["serve_with_maintenance"]["qps"]
    )
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
