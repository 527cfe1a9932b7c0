"""Command-line interface.

The CLI exposes the three workflows a user of the system goes through:

* ``repro-voice datasets`` — list the bundled synthetic datasets
  (Table I overview);
* ``repro-voice preprocess`` — run the batch speech generation for a
  dataset and write the resulting speech store to a JSON artifact;
* ``repro-voice ask`` — answer one or more natural-language questions
  against a dataset (pre-processing on the fly or from a saved
  artifact);
* ``repro-voice maintain`` — simulate an append-only data update:
  pre-process a base slice of a dataset, append the held-out rows, and
  incrementally refresh only the affected speeches;
* ``repro-voice serve`` — run the asyncio serving service against a
  synthetic request stream: concurrent ``submit`` sessions, background
  maintenance passes on held-out rows (snapshot swaps, no pause), and
  an aggregate latency/throughput report — the deployment smoke.  With
  ``--http PORT`` it instead starts the real network front-end
  (:class:`repro.api.http_server.VoiceHttpServer`, ``POST /v1/ask`` et
  al.) and serves until SIGINT/SIGTERM, shutting down cleanly;
* ``repro-voice experiment`` — regenerate one of the paper's tables or
  figures and print its rows.

Parallel commands accept ``--pool keep`` to run every pre-processing
and maintenance pass of one invocation on a single persistent worker
pool (the streaming service layer), versus the default ``fresh`` pool
per run.

Every engine-building command also accepts ``--failpoint SPEC``
(repeatable) and ``--failpoint-seed N`` for deterministic fault
injection (see :mod:`repro.reliability.faults`) — the chaos-smoke entry
point: ``--failpoint worker.crash:times=1`` kills a pool worker
mid-run and the command must still succeed via supervision.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from typing import Callable, Sequence

from repro.algorithms.registry import available_summarizers
from repro.datasets import available_datasets, dataset_overview, load_dataset
from repro.experiments.runner import ExperimentResult, format_rows
from repro.system.config import SummarizationConfig
from repro.system.engine import VoiceQueryEngine
from repro.system.persistence import save_store, store_to_dict
from repro.system.worker_pool import WorkerPool


def _experiment_registry() -> dict[str, Callable[[], ExperimentResult]]:
    """Named experiments runnable from the CLI (lazy imports keep startup fast)."""
    from repro.experiments.ablations import (
        run_exact_pruning_ablation,
        run_greedy_ratio_ablation,
        run_pruning_plan_ablation,
    )
    from repro.experiments.fig3_algorithms import run_figure3
    from repro.experiments.fig4_scaling import run_figure4
    from repro.experiments.fig5_ratings import run_figure5
    from repro.experiments.fig6_estimation import run_figure6
    from repro.experiments.fig7_conflict import run_figure7
    from repro.experiments.fig8_interfaces import run_figure8
    from repro.experiments.fig9_query_mix import run_figure9
    from repro.experiments.fig10_latency import run_figure10
    from repro.experiments.fig11_baseline_study import run_figure11
    from repro.experiments.ml_baseline_study import run_ml_baseline
    from repro.experiments.table1_datasets import run_table1
    from repro.experiments.table2_speeches import run_table2
    from repro.experiments.table3_requests import run_table3

    return {
        "table1": run_table1,
        "table2": run_table2,
        "table3": run_table3,
        "figure3": run_figure3,
        "figure4": run_figure4,
        "figure5": run_figure5,
        "figure6": run_figure6,
        "figure7": run_figure7,
        "figure8": run_figure8,
        "figure9": run_figure9,
        "figure10": run_figure10,
        "figure11": run_figure11,
        "ml_baseline": run_ml_baseline,
        "ablation_exact_pruning": run_exact_pruning_ablation,
        "ablation_pruning_plans": run_pruning_plan_ablation,
        "ablation_greedy_ratio": run_greedy_ratio_ablation,
    }


def _build_config(args: argparse.Namespace, spec) -> SummarizationConfig:
    """The command's configuration; values it rejects are usage errors (exit 2)."""
    dimensions = tuple(args.dimensions) if args.dimensions else spec.dimensions
    targets = tuple(args.targets) if args.targets else spec.targets
    try:
        return SummarizationConfig.create(
            table=spec.key,
            dimensions=dimensions,
            targets=targets,
            max_query_length=args.max_query_length,
            max_facts_per_speech=args.facts,
            max_fact_dimensions=args.fact_dimensions,
            algorithm=args.algorithm,
        )
    except ValueError as exc:
        args.usage_error(str(exc))


def _build_engine(args: argparse.Namespace) -> VoiceQueryEngine:
    dataset = load_dataset(args.dataset, num_rows=args.rows)
    config = _build_config(args, dataset.spec)
    return VoiceQueryEngine(config, dataset.table, enable_advanced_queries=args.advanced)


def _pool_scope(args: argparse.Namespace):
    """Context manager for the command's worker pool (``--pool``).

    Under ``keep`` (with ``--workers`` > 1) it yields one persistent
    :class:`WorkerPool` closed when the command finishes, so every
    pre-processing and maintenance pass of the invocation shares it;
    otherwise it yields None and each run forks and reaps its own pool.
    """
    if args.pool == "keep" and args.workers and args.workers > 1:
        return WorkerPool(args.workers)
    return nullcontext()


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(usage_error=parser.error)
    parser.add_argument("--dataset", required=True, choices=available_datasets())
    parser.add_argument("--rows", type=int, default=None, help="synthetic rows to generate")
    parser.add_argument("--dimensions", nargs="*", default=None)
    parser.add_argument("--targets", nargs="*", default=None)
    parser.add_argument("--max-query-length", type=int, default=1, dest="max_query_length")
    parser.add_argument("--facts", type=int, default=3, help="facts per speech")
    parser.add_argument(
        "--fact-dimensions", type=int, default=1, dest="fact_dimensions",
        help="extra dimensions per fact",
    )
    parser.add_argument(
        "--algorithm", default="G-O", choices=available_summarizers(),
        help="summarizer name (G-L is the lazy-greedy kernel variant)",
    )
    parser.add_argument("--max-problems", type=int, default=None, dest="max_problems")
    parser.add_argument(
        "--workers", type=int, default=0,
        help="pre-processing pool workers (0/1 = serial; N > 1 streams "
        "query chunks across N processes, same store as a serial run)",
    )
    parser.add_argument(
        "--pool", choices=("fresh", "keep"), default="fresh",
        help="worker-pool lifecycle: 'fresh' forks a pool per run, 'keep' "
        "spawns one persistent pool reused by every pre-processing and "
        "maintenance pass of this invocation",
    )
    parser.add_argument(
        "--advanced", action="store_true",
        help="answer comparison/extremum questions via the extension",
    )
    parser.add_argument(
        "--failpoint", action="append", default=[], metavar="SPEC",
        help="activate a deterministic failpoint, e.g. worker.crash:times=1 "
        "or maintain.raise (repeatable; see repro.reliability.faults)",
    )
    parser.add_argument(
        "--failpoint-seed", type=int, default=0, dest="failpoint_seed",
        help="seed for probabilistic failpoint rules (replayable chaos)",
    )


def command_datasets(_args: argparse.Namespace) -> int:
    """List the synthetic datasets (Table I overview)."""
    print(format_rows(dataset_overview()))
    return 0


def command_preprocess(args: argparse.Namespace) -> int:
    """Pre-generate speeches for a dataset and save them to JSON."""
    engine = _build_engine(args)
    with _pool_scope(args) as pool:
        report = engine.preprocess(
            max_problems=args.max_problems, workers=args.workers, pool=pool
        )
    print(
        f"generated {report.speeches_generated} speeches in {report.total_seconds:.2f}s "
        f"({report.per_query_seconds * 1000:.1f} ms per speech, "
        f"avg scaled utility {report.average_scaled_utility:.3f})"
    )
    if args.output:
        save_store(engine.store, args.output, engine.config)
        print(f"speech store written to {args.output}")
    return 0


def command_ask(args: argparse.Namespace) -> int:
    """Answer natural-language questions against a dataset."""
    engine = _build_engine(args)
    if args.store:
        loaded = engine.load_speeches(args.store)
        print(f"loaded {loaded} pre-generated speeches from {args.store}")
    else:
        with _pool_scope(args) as pool:
            engine.preprocess(
                max_problems=args.max_problems, workers=args.workers, pool=pool
            )
    for question in args.question:
        response = engine.ask(question)
        print(f"user : {question}")
        print(f"voice: {response.text}")
    return 0


def command_maintain(args: argparse.Namespace) -> int:
    """Pre-process a base slice, append held-out rows, refresh the store.

    The dataset's last ``--append-rows`` rows are held out as the
    simulated update batch.  With ``--verify-serial`` the whole pass is
    repeated serially from scratch and the rebuilt counts and store
    payloads must match exactly — the CI smoke for parallel incremental
    maintenance.
    """
    from repro.serving.workload import holdout_split
    from repro.system.preprocessor import Preprocessor
    from repro.system.problem_generator import ProblemGenerator
    from repro.system.updates import IncrementalMaintainer

    dataset = load_dataset(args.dataset, num_rows=args.rows)
    config = _build_config(args, dataset.spec)
    base_table, new_rows = holdout_split(dataset.table, args.append_rows)

    def run_pass(workers: int, pool: WorkerPool | None):
        store, _ = Preprocessor(config).run(
            ProblemGenerator(config, base_table), workers=workers, pool=pool
        )
        maintainer = IncrementalMaintainer(config, base_table)
        report = maintainer.maintain(new_rows, store, workers=workers, pool=pool)
        return store, report

    with _pool_scope(args) as pool:
        store, report = run_pass(args.workers, pool)
    print(
        f"appended {report.new_rows} rows: {report.affected_queries} queries "
        f"affected, {report.rebuilt_speeches} speeches rebuilt, "
        f"{report.unchanged_speeches} untouched in {report.total_seconds:.2f}s "
        f"(workers={report.workers}, pool={args.pool})"
    )
    if args.output:
        save_store(store, args.output, config)
        print(f"maintained speech store written to {args.output}")
    if args.verify_serial:
        serial_store, serial_report = run_pass(0, None)
        payload = json.dumps(store_to_dict(store), sort_keys=True)
        serial_payload = json.dumps(store_to_dict(serial_store), sort_keys=True)
        if (
            report.rebuilt_speeches != serial_report.rebuilt_speeches
            or report.affected_queries != serial_report.affected_queries
            or payload != serial_payload
        ):
            print(
                "ERROR: parallel maintenance diverged from the serial pass "
                f"(rebuilt {report.rebuilt_speeches} vs "
                f"{serial_report.rebuilt_speeches})",
                file=sys.stderr,
            )
            return 1
        print(
            f"serial parity verified: {serial_report.rebuilt_speeches} speeches "
            "rebuilt, identical store payloads"
        )
    return 0


def _build_serving_config(args: argparse.Namespace):
    """The one :class:`repro.api.config.ServingConfig` for this command."""
    from repro.api.config import ServingConfig

    return ServingConfig(
        concurrency=args.concurrency,
        max_queue_depth=args.queue_depth,
        shards=getattr(args, "shards", 1),
        maintenance_workers=args.workers,
        session_capacity=args.session_capacity,
        http_host=args.http_host,
        http_port=args.http if args.http is not None else 0,
        default_deadline_ms=args.deadline_ms,
        failpoints=tuple(args.failpoint),
        failpoint_seed=args.failpoint_seed,
        data_dir=args.data_dir,
        journal_fsync=args.journal_fsync,
        checkpoint_every_swaps=args.checkpoint_every_swaps,
        checkpoint_keep=args.checkpoint_keep,
        checkpoint_compact=getattr(args, "checkpoint_compact", False),
        snapshot_dir=getattr(args, "snapshot_dir", None),
    )


def command_serve(args: argparse.Namespace) -> int:
    """Serve a synthetic request stream with concurrent maintenance.

    Pre-processes a base slice of the dataset, then answers
    ``--requests`` synthesized questions through the
    :class:`repro.serving.service.VoiceService` request loop while the
    held-out rows are appended in background maintenance passes (one
    pass requested every ``--maintain-every`` submissions).  Exits
    non-zero if any request errors, any maintenance job fails, or the
    service rejected work the driver paced within its queue bounds.

    With ``--http PORT`` the command instead pre-processes the whole
    dataset and serves the public ``/v1`` HTTP API until SIGINT or
    SIGTERM (clean shutdown, exit 0) — the deployment entry point.
    """
    import asyncio

    from repro.serving import VoiceService
    from repro.serving.workload import (
        drive_requests,
        holdout_split,
        serving_questions,
        split_batches,
    )
    from repro.system.engine import VoiceQueryEngine as Engine

    serving_config = _build_serving_config(args)
    if serving_config.shards > 1 and args.http is None:
        print("ERROR: --shards requires --http (the sharded tier is a network deployment)", file=sys.stderr)
        return 2
    if args.http is not None:
        return _serve_http(args, serving_config)

    dataset = load_dataset(args.dataset, num_rows=args.rows)
    config = _build_config(args, dataset.spec)
    base_table, new_rows = holdout_split(dataset.table, args.append_rows)

    engine = Engine(config, base_table, enable_advanced_queries=args.advanced)

    passes = (
        max(1, args.requests // args.maintain_every) if args.maintain_every else 0
    )
    batches = split_batches(new_rows, passes)
    # Trigger a pass every --maintain-every submissions, clamped into
    # the request stream so the last batches are never dropped (several
    # batches landing on the final request coalesce into one job).
    append_at: dict[int, list] = {}
    for index, batch in enumerate(batches):
        position = min((index + 1) * args.maintain_every, args.requests - 1)
        append_at.setdefault(position, []).append(batch)

    async def drive(pool) -> tuple[dict, list, dict]:
        async with VoiceService(engine, serving_config, pool=pool) as service:
            questions = serving_questions(engine.store, args.requests)
            summary, _ = await drive_requests(
                service,
                questions,
                append_at,
                max_outstanding=max(1, args.queue_depth // 2),
            )
            await service.scheduler.quiesce()
            jobs = list(service.scheduler.jobs)
            reliability = service.reliability()
        return summary, jobs, reliability

    with _pool_scope(args) as pool:
        report = engine.preprocess(
            max_problems=args.max_problems, workers=args.workers, pool=pool
        )
        print(
            f"pre-processed {report.speeches_generated} speeches in "
            f"{report.total_seconds:.2f}s; serving {args.requests} requests "
            f"(concurrency {args.concurrency}, {len(batches)} maintenance passes)"
        )
        summary, jobs, reliability = asyncio.run(drive(pool))

    print(
        f"served {summary['completed']} requests at {summary['qps']:.0f} qps "
        f"(p50 {summary['p50_ms']:.2f} ms, p95 {summary['p95_ms']:.2f} ms, "
        f"p99 {summary['p99_ms']:.2f} ms, hit rate {summary['hit_rate']:.2f}, "
        f"{summary['offloaded']} offloaded, {summary['errors']} errors, "
        f"{summary['timeouts']} timeouts)"
    )
    for job in jobs:
        outcome = (
            f"rebuilt {job.report.rebuilt_speeches} speeches -> "
            f"snapshot v{job.snapshot_version}"
            if job.report is not None
            else job.error or job.status
        )
        print(
            f"maintenance job {job.index} (attempt {job.attempt}): {job.status}, "
            f"{job.new_rows.num_rows} rows ({job.batches} batches coalesced), "
            f"{outcome} in {job.seconds:.2f}s"
        )
    if args.failpoint:
        from repro.reliability import FAILPOINTS

        print(f"reliability: {json.dumps(reliability, sort_keys=True)}")
        print(f"failpoints: {json.dumps(FAILPOINTS.report(), sort_keys=True)}")
    # A job that failed and then succeeded on retry is a survived
    # fault, not a smoke failure; only permanently lost rows are.
    lost_rows = sum(job.dropped_rows for job in jobs)
    if summary["errors"] or summary["rejected"] or lost_rows:
        print(
            "ERROR: serving smoke failed "
            f"(errors={summary['errors']}, rejected={summary['rejected']}, "
            f"dropped_rows={lost_rows})",
            file=sys.stderr,
        )
        return 1
    if len(batches) != 0 and not any(job.status == "completed" for job in jobs):
        print("ERROR: no maintenance job completed", file=sys.stderr)
        return 1
    return 0


def _serve_http(args: argparse.Namespace, serving_config) -> int:
    """Run the public HTTP front-end until SIGINT/SIGTERM.

    Pre-processes the whole dataset, starts the
    :class:`repro.serving.service.VoiceService` plus the
    :class:`repro.api.http_server.VoiceHttpServer` on the configured
    bind address, prints the resolved listen URL (port 0 picks an
    ephemeral port), and serves until the first SIGINT or SIGTERM.
    Shutdown is clean: the listener closes, queued requests drain, and
    the exit code is 0 unless any request errored.
    """
    import asyncio
    import signal

    from repro.api.http_server import VoiceHttpServer
    from repro.serving import ShardManager, VoiceService

    engine = _build_engine(args)
    sharded = serving_config.shards > 1

    async def run(pool) -> dict:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        backend = (
            ShardManager(engine, serving_config)
            if sharded
            else VoiceService(engine, serving_config, pool=pool)
        )
        async with backend:
            async with VoiceHttpServer(
                backend,
                host=serving_config.http_host,
                port=serving_config.http_port,
            ) as server:
                if sharded:
                    print(
                        f"listening on {server.address} (/v1/ask, "
                        f"{serving_config.shards} shards on ports "
                        f"{backend.shard_ports()})",
                        flush=True,
                    )
                else:
                    print(f"listening on {server.address} (/v1/ask)", flush=True)
                await stop.wait()
                print("signal received, shutting down", flush=True)
            if sharded:
                summary = await backend.metrics_summary()
                summary["rejected"] = summary.get("rejected", 0)
                return summary
            return backend.metrics.summary()

    with _pool_scope(args) as pool:
        report = engine.preprocess(
            max_problems=args.max_problems, workers=args.workers, pool=pool
        )
        print(
            f"pre-processed {report.speeches_generated} speeches in "
            f"{report.total_seconds:.2f}s; starting HTTP front-end",
            flush=True,
        )
        summary = asyncio.run(run(pool))

    print(
        f"served {summary['completed']} requests "
        f"(p50 {summary['p50_ms']:.2f} ms, p95 {summary['p95_ms']:.2f} ms, "
        f"{summary['rejected']} rejected, {summary['errors']} errors)"
    )
    return 1 if summary["errors"] else 0


def command_recover(args: argparse.Namespace) -> int:
    """Recover durable serving state from a ``serve --data-dir`` run.

    Rebuilds the base engine exactly as the original serve run did
    (same dataset/config arguments; ``--append-rows`` must match the
    holdout the serve run used, 0 for ``serve --http`` runs), then
    replays the data directory's newest valid checkpoint plus journal
    into a recovered speech store and prints the recovery summary.

    With ``--verify`` the state is recovered a second time by pure
    journal replay from the base (checkpoints ignored) and the command
    fails unless both paths produce byte-identical stores and tables —
    the crash-recovery parity check the CI chaos smoke runs after a
    SIGKILL.
    """
    from repro.serving.workload import holdout_split
    from repro.storage import recover_state, table_to_payload
    from repro.system.persistence import canonical_store_payload

    dataset = load_dataset(args.dataset, num_rows=args.rows)
    config = _build_config(args, dataset.spec)
    base_table = dataset.table
    if args.append_rows:
        base_table, _ = holdout_split(dataset.table, args.append_rows)
    engine = VoiceQueryEngine(config, base_table, enable_advanced_queries=args.advanced)
    with _pool_scope(args) as pool:
        engine.preprocess(
            max_problems=args.max_problems, workers=args.workers, pool=pool
        )

    def recover(use_checkpoint: bool):
        return recover_state(
            args.data_dir,
            engine.config,
            base_store=engine.store,
            base_table=engine.table,
            summarizer=engine.summarizer,
            realizer=engine.realizer,
            use_checkpoint=use_checkpoint,
        )

    recovered = recover(use_checkpoint=True)
    print(f"recovery: {json.dumps(recovered.summary(), sort_keys=True)}")
    if not args.verify:
        return 0
    replayed = recover(use_checkpoint=False)
    store_match = canonical_store_payload(recovered.store) == canonical_store_payload(
        replayed.store
    )
    table_match = table_to_payload(recovered.table) == table_to_payload(replayed.table)
    if not (store_match and table_match):
        print(
            "ERROR: checkpoint recovery diverged from pure journal replay "
            f"(store match={store_match}, table match={table_match})",
            file=sys.stderr,
        )
        return 1
    print(
        "verified: checkpoint recovery matches pure journal replay "
        f"({len(recovered.store)} speeches, {recovered.table.num_rows} table rows)"
    )
    return 0


def command_experiment(args: argparse.Namespace) -> int:
    """Run one named experiment and print its rows."""
    registry = _experiment_registry()
    if args.name not in registry:
        print(f"unknown experiment {args.name!r}; available: {', '.join(sorted(registry))}")
        return 2
    result = registry[args.name]()
    print(result.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-voice",
        description="Voice data summarization (ICDE 2021 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser("datasets", help="list synthetic datasets")
    datasets_parser.set_defaults(handler=command_datasets)

    preprocess_parser = subparsers.add_parser(
        "preprocess", help="pre-generate speeches for a dataset"
    )
    _add_engine_arguments(preprocess_parser)
    preprocess_parser.add_argument("--output", default=None, help="JSON file for the speech store")
    preprocess_parser.set_defaults(handler=command_preprocess)

    ask_parser = subparsers.add_parser("ask", help="answer voice questions")
    _add_engine_arguments(ask_parser)
    ask_parser.add_argument("--store", default=None, help="load speeches from a JSON artifact")
    ask_parser.add_argument("question", nargs="+", help="question text(s)")
    ask_parser.set_defaults(handler=command_ask)

    maintain_parser = subparsers.add_parser(
        "maintain",
        help="incrementally refresh a speech store after appended rows",
    )
    _add_engine_arguments(maintain_parser)
    maintain_parser.add_argument(
        "--append-rows", type=int, default=25, dest="append_rows",
        help="hold out the dataset's last N rows as the update batch",
    )
    maintain_parser.add_argument(
        "--verify-serial", action="store_true", dest="verify_serial",
        help="re-run the pass serially and fail unless counts and store match",
    )
    maintain_parser.add_argument(
        "--output", default=None, help="JSON file for the maintained store"
    )
    maintain_parser.set_defaults(handler=command_maintain)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the concurrent serving service with background maintenance",
    )
    _add_engine_arguments(serve_parser)
    serve_parser.add_argument(
        "--requests", type=int, default=120,
        help="synthesized voice requests to serve",
    )
    serve_parser.add_argument(
        "--concurrency", type=int, default=8,
        help="service worker tasks (max in-flight requests)",
    )
    serve_parser.add_argument(
        "--queue-depth", type=int, default=64, dest="queue_depth",
        help="admission-control queue depth before submits are rejected",
    )
    serve_parser.add_argument(
        "--append-rows", type=int, default=25, dest="append_rows",
        help="hold out the dataset's last N rows as maintenance appends",
    )
    serve_parser.add_argument(
        "--maintain-every", type=int, default=40, dest="maintain_every",
        help="request a background maintenance pass every N submissions "
        "(0 disables maintenance)",
    )
    serve_parser.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="serve the public /v1 HTTP API on this port (0 = ephemeral) "
        "until SIGINT/SIGTERM instead of driving a synthetic stream",
    )
    serve_parser.add_argument(
        "--http-host", default="127.0.0.1", dest="http_host",
        help="bind address for --http (default 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--shards", type=int, default=1,
        help="worker processes behind the HTTP router (requires --http; "
        "1 = single-process serving, N > 1 spawns one engine per shard "
        "with consistent-hash session affinity)",
    )
    serve_parser.add_argument(
        "--session-capacity", type=int, default=1024, dest="session_capacity",
        help="bound on live sessions before LRU eviction",
    )
    serve_parser.add_argument(
        "--deadline-ms", type=float, default=None, dest="deadline_ms",
        help="default per-request latency budget; expired requests get a "
        "'timeout' response instead of queueing indefinitely",
    )
    serve_parser.add_argument(
        "--data-dir", default=None, dest="data_dir",
        help="directory for durable serving state (write-ahead journal + "
        "checkpoints); the service recovers from it at start and "
        "journals every accepted append before acking",
    )
    serve_parser.add_argument(
        "--journal-fsync", action="store_true", dest="journal_fsync",
        help="fsync every journal record (machine-crash durable) instead "
        "of flushing only (process-crash durable, the default)",
    )
    serve_parser.add_argument(
        "--checkpoint-every", type=int, default=4, dest="checkpoint_every_swaps",
        metavar="SWAPS", help="persist a checkpoint every N snapshot swaps",
    )
    serve_parser.add_argument(
        "--checkpoint-keep", type=int, default=3, dest="checkpoint_keep",
        help="checkpoints retained on disk (older ones pruned)",
    )
    serve_parser.add_argument(
        "--checkpoint-compact", action="store_true", dest="checkpoint_compact",
        help="persist the speech store inside checkpoints in the compact "
        "snapshot format (store.snap) instead of canonical JSON",
    )
    serve_parser.add_argument(
        "--snapshot-dir", default=None, dest="snapshot_dir",
        help="directory for frozen compact-store snapshots; with --shards "
        "> 1 the shards mmap-attach the current snapshot instead of "
        "unpickling a private store copy",
    )
    serve_parser.set_defaults(handler=command_serve)

    recover_parser = subparsers.add_parser(
        "recover",
        help="recover (and verify) durable serving state from a data directory",
    )
    _add_engine_arguments(recover_parser)
    recover_parser.add_argument(
        "--data-dir", required=True, dest="data_dir",
        help="the data directory a `serve --data-dir` run wrote",
    )
    recover_parser.add_argument(
        "--append-rows", type=int, default=0, dest="append_rows",
        help="rows the original serve run held out of pre-processing as "
        "its append stream (0 for `serve --http` runs, which "
        "pre-process the whole dataset)",
    )
    recover_parser.add_argument(
        "--verify", action="store_true",
        help="also recover via pure journal replay (ignoring checkpoints) "
        "and fail unless both paths produce byte-identical state",
    )
    recover_parser.set_defaults(handler=command_recover)

    experiment_parser = subparsers.add_parser(
        "experiment", help="regenerate a table/figure of the paper"
    )
    experiment_parser.add_argument("name", help="experiment name, e.g. figure3 or table1")
    experiment_parser.set_defaults(handler=command_experiment)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    failpoints = getattr(args, "failpoint", None)
    if failpoints:
        # Installed before the handler runs so pre-processing faults
        # fire too; the serving config re-asserts the same specs with
        # ensure(), preserving counters across service start.
        from repro.reliability import FAILPOINTS

        FAILPOINTS.configure(failpoints, seed=args.failpoint_seed)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
