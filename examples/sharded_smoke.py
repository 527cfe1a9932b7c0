"""CI driver for a sharded voice server (``serve --http --shards N``).

Start the server in one terminal::

    PYTHONPATH=src python -m repro.cli serve --dataset flights --rows 300 \
        --algorithm G-B --http 8934 --shards 2 \
        --failpoint shard.crash:times=1

then run this script in another::

    PYTHONPATH=src python examples/sharded_smoke.py --port 8934

The script exercises the multi-process tier's contract end to end:

1. a concurrent session-less burst — with the ``shard.crash`` failpoint
   armed, one of these asks SIGKILLs its routed shard mid-request and
   the router must fail it over: **zero lost requests**;
2. ``/healthz`` polled back to ``ok`` — proof the supervisor respawned
   the killed shard (and ``router.respawns`` counts it);
3. a session-scoped ask plus a "repeat" that must replay the previous
   answer byte-identically, and ``GET /v1/sessions/<id>`` reporting
   both requests from the *same* shard — consistent-hash affinity
   through the router;
4. aggregated ``/v1/metrics``: totals cover the whole burst, the
   per-shard breakdown lists every shard, and the ``router`` section
   reports the expected topology;
5. with ``--append N --require-digest-parity``: N broadcast appends
   drive maintenance swaps, after which ``GET /v1/store/digest`` must
   report every shard serving byte-identical stores at snapshot
   version N — the compact-store parity contract through real
   processes.  Every shard attaches the frozen snapshot, from
   ``--snapshot-dir`` when the server was started with one and from a
   private temporary directory otherwise, so this holds on both.

Exits non-zero on any violation, which is why CI reuses it as the
sharded smoke driver.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.api import HttpClient, VoiceApiError, VoiceRequest  # noqa: E402


async def wait_for_server(client: HttpClient, timeout: float) -> dict:
    """Poll /healthz until the server answers (it preprocesses first)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return await client.health()
        except VoiceApiError:
            if time.monotonic() >= deadline:
                raise
            await asyncio.sleep(0.25)


async def wait_for_status(client: HttpClient, status: str, timeout: float) -> dict:
    """Poll /healthz until it reports ``status`` (respawn proof)."""
    deadline = time.monotonic() + timeout
    while True:
        health = await client.health()
        if health.get("status") == status:
            return health
        if time.monotonic() >= deadline:
            raise TimeoutError(f"server never reached {status!r}: {health}")
        await asyncio.sleep(0.1)


async def main_async(args: argparse.Namespace) -> int:
    failures: list[str] = []
    client = HttpClient(args.host, args.port, max_connections=args.concurrency)
    health = await wait_for_server(client, args.startup_timeout)
    print(f"server is up: {health}")
    shards = int(health.get("shards", 0))
    if shards != args.shards:
        failures.append(f"expected {args.shards} shards, healthz reports {shards}")

    # 1. Concurrent burst.  With shard.crash armed the first routed ask
    # kills its shard; the router must answer every request anyway.
    burst = [
        client.ask(VoiceRequest(text=args.question, request_id=f"burst-{index}"))
        for index in range(args.requests)
    ]
    responses = await asyncio.gather(*burst, return_exceptions=True)
    errors = [r for r in responses if isinstance(r, BaseException)]
    if errors:
        failures.append(
            f"{len(errors)}/{args.requests} burst requests lost: {errors[0]!r}"
        )
    else:
        print(f"burst: {args.requests} concurrent requests answered, zero lost")

    # 2. The supervisor must bring the killed shard back.
    health = await wait_for_status(client, "ok", args.respawn_timeout)
    if int(health.get("healthy_shards", 0)) != args.shards:
        failures.append(f"not all shards healthy after respawn: {health}")
    else:
        print(f"respawn: healthz back to ok with {args.shards} healthy shards")

    # 3. Session affinity: ask + repeat on one session, byte-identical,
    # both recorded by the one shard that owns the session.
    session = "sharded-smoke-session"
    first = await client.ask(
        VoiceRequest(text=args.question, session_id=session, request_id="affinity-1")
    )
    replay = await client.ask(VoiceRequest(text="repeat", session_id=session))
    if replay.text != first.text:
        failures.append("repeat did not replay the previous answer verbatim")
    summary = await client.session(session)
    if summary is None or summary.get("requests") != 2:
        failures.append(
            f"owning shard did not record both session requests: {summary}"
        )
    elif "shard" not in summary:
        failures.append(f"session summary carries no owning shard: {summary}")
    else:
        print(
            f"affinity: session {session!r} served both requests from "
            f"shard {summary['shard']}"
        )

    # 4. Aggregated metrics with the per-shard breakdown.
    metrics = await client.metrics()
    router = metrics.get("router") or {}
    per_shard = metrics.get("shards") or {}
    expected = args.requests + 2
    if metrics.get("completed", 0) < expected:
        failures.append(
            f"aggregated completed={metrics.get('completed')} < {expected}"
        )
    if metrics.get("errors", 0):
        failures.append(f"shards counted {metrics['errors']} request errors")
    if router.get("shards") != args.shards:
        failures.append(f"router section reports wrong topology: {router}")
    if args.expect_respawns and not router.get("respawns"):
        failures.append(f"injected crash never respawned a shard: {router}")
    if len(per_shard) != args.shards:
        failures.append(
            f"per-shard breakdown lists {len(per_shard)} shards, "
            f"expected {args.shards}"
        )
    if sum(int(shard.get("completed", 0)) for shard in per_shard.values()) < 1:
        failures.append(f"per-shard breakdown carries no completions: {per_shard}")
    print(
        f"metrics: {metrics.get('completed')} completed across "
        f"{len(per_shard)} shards, router respawns={router.get('respawns')}, "
        f"relay retries={router.get('relay_retries')}"
    )

    # 5. Maintenance swaps + cross-shard byte parity.
    if args.append:
        for index in range(args.append):
            receipt = await client.append(
                [
                    {
                        "airline": "F9",
                        "origin_region": "West",
                        "destination_region": "South",
                        "season": "Winter",
                        "month": "February",
                        "time_of_day": "Evening",
                        "day_type": "Weekday",
                        "cancellation": 0.0,
                        "delay_minutes": 30.0 + index,
                    }
                ]
            )
            if receipt.get("accepted_rows") != 1:
                failures.append(f"append {index} not accepted: {receipt}")
        digest = await client.store_digest()
        print(
            f"digest: snapshot v{digest.get('snapshot_version')}, "
            f"consistent={digest.get('consistent')}, "
            f"shards={digest.get('digests')}"
        )
        if digest.get("snapshot_version") != args.append:
            failures.append(
                f"{args.append} appends should leave snapshot version "
                f"{args.append}, digest endpoint reports {digest}"
            )
        if args.require_digest_parity and not digest.get("consistent"):
            failures.append(
                f"post-swap shard stores are not byte-identical: {digest}"
            )

    await client.aclose()
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--shards", type=int, default=2, help="expected shard count")
    parser.add_argument(
        "--question", default="what is the delay minutes for Winter",
        help="transcript for the data question (flights-dataset default)",
    )
    parser.add_argument("--requests", type=int, default=32, help="concurrent burst size")
    parser.add_argument("--concurrency", type=int, default=8, help="client connections")
    parser.add_argument(
        "--expect-respawns", action="store_true", dest="expect_respawns",
        help="require router.respawns >= 1 (shard.crash failpoint armed)",
    )
    parser.add_argument(
        "--append", type=int, default=0,
        help="POST this many single-row /v1/append batches (one swap each)",
    )
    parser.add_argument(
        "--require-digest-parity", action="store_true",
        dest="require_digest_parity",
        help="after the appends, require GET /v1/store/digest to report "
        "byte-identical stores on every shard",
    )
    parser.add_argument(
        "--startup-timeout", type=float, default=180.0, dest="startup_timeout",
        help="seconds to wait for /healthz while the server pre-processes",
    )
    parser.add_argument(
        "--respawn-timeout", type=float, default=60.0, dest="respawn_timeout",
        help="seconds to wait for healthz to return to ok after a crash",
    )
    args = parser.parse_args(argv)
    return asyncio.run(main_async(args))


if __name__ == "__main__":
    sys.exit(main())
