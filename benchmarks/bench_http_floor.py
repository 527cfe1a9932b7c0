"""Benchmark: the HTTP floor under one exact hit, on one event loop.

Sends the bytes of one ``POST /v1/ask`` exact hit and its response
through three stacks, one request in flight, client and server on the
same event loop in one process:

* ``streams_echo`` — a bare ``asyncio`` streams server that reads the
  request bytes and writes the response bytes: the floor for streams;
* ``protocol_echo`` — the same echo over bare ``asyncio.Protocol``
  objects: the floor for protocols;
* ``http_exact_hit`` — :class:`repro.api.clients.HttpClient` against
  :class:`repro.api.http_server.VoiceHttpServer` over a
  :class:`repro.serving.service.VoiceService` of a pre-processed
  flights engine, asking stored questions (every answer is checked to
  be an exact hit).

For each it reports microseconds per round trip (median and quartiles
over timed rounds) and event-loop passes per request: the
``BaseEventLoop._run_once`` calls, counted by a ``SelectorEventLoop``
subclass.  The pass count is deterministic; the microseconds are not,
so compare them only within one run.  ``http_exact_hit`` minus
``streams_echo`` is what the voice stack adds above the transport.

Usage::

    python benchmarks/bench_http_floor.py            # full size
    python benchmarks/bench_http_floor.py --quick    # CI smoke
    python benchmarks/bench_http_floor.py --output results.json

Exits 1 when an ``http_exact_hit`` answer is not an exact hit.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.api import ServingConfig, VoiceRequest  # noqa: E402
from repro.api import http1  # noqa: E402
from repro.api.clients import HttpClient  # noqa: E402
from repro.api.envelopes import response_to_dict  # noqa: E402
from repro.api.http_server import VoiceHttpServer  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.serving.service import VoiceService  # noqa: E402
from repro.serving.workload import question_for_query  # noqa: E402
from repro.system.config import SummarizationConfig  # noqa: E402
from repro.system.engine import ResponseKind, VoiceQueryEngine  # noqa: E402

HOST = "127.0.0.1"

#: Round trips before timing starts (connection set-up, caches).
WARMUP = 200

#: Distinct stored questions the HTTP stack cycles through.
QUESTIONS = 64


class CountingLoop(asyncio.SelectorEventLoop):
    """A selector event loop that counts its passes (``_run_once`` calls)."""

    passes = 0

    def _run_once(self):
        self.passes += 1
        super()._run_once()


# ----------------------------------------------------------------------
# The three stacks
# ----------------------------------------------------------------------
async def streams_echo(request: bytes, response: bytes):
    """A streams server answering every request with ``response``."""
    finished = asyncio.Event()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            while True:
                await reader.readexactly(len(request))
                writer.write(response)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
            finished.set()

    server = await asyncio.start_server(handle, HOST, 0)
    reader, writer = await asyncio.open_connection(HOST, server.sockets[0].getsockname()[1])

    async def round_trip():
        writer.write(request)
        await writer.drain()
        await reader.readexactly(len(response))

    async def close():
        writer.close()
        server.close()
        await finished.wait()

    return round_trip, close


class _EchoServer(asyncio.Protocol):
    def __init__(self, request_size: int, response: bytes):
        self._request_size = request_size
        self._response = response
        self._buffered = 0

    def connection_made(self, transport):
        self._transport = transport

    def data_received(self, data):
        self._buffered += len(data)
        while self._buffered >= self._request_size:
            self._buffered -= self._request_size
            self._transport.write(self._response)


class _EchoClient(asyncio.Protocol):
    def __init__(self, response_size: int):
        self._response_size = response_size
        self._buffered = 0
        self.waiter: asyncio.Future | None = None

    def data_received(self, data):
        self._buffered += len(data)
        if self._buffered >= self._response_size:
            self._buffered -= self._response_size
            self.waiter.set_result(None)


async def protocol_echo(request: bytes, response: bytes):
    """The same echo over bare protocols: no stream reader or writer."""
    loop = asyncio.get_running_loop()
    server = await loop.create_server(lambda: _EchoServer(len(request), response), HOST, 0)
    transport, client = await loop.create_connection(
        lambda: _EchoClient(len(response)), HOST, server.sockets[0].getsockname()[1]
    )

    async def round_trip():
        client.waiter = loop.create_future()
        transport.write(request)
        await client.waiter

    async def close():
        transport.close()
        server.close()
        await server.wait_closed()

    return round_trip, close


async def http_exact_hit(engine: VoiceQueryEngine, questions: list[str]):
    """The full client → server → service stack, answering exact hits."""
    service = VoiceService(engine, ServingConfig())
    await service.start()
    server = VoiceHttpServer(service, HOST)
    await server.start()
    client = HttpClient(server.host, server.port, max_connections=1)
    requests = [VoiceRequest(text=question) for question in questions]
    sent = 0

    async def round_trip():
        nonlocal sent
        response = await client.ask(requests[sent % len(requests)])
        sent += 1
        if response.kind is not ResponseKind.SPEECH or not response.exact_match:
            raise RuntimeError(f"not an exact hit: {requests[sent - 1].text!r}")

    async def close():
        await client.aclose()
        await server.stop()
        await service.stop()

    return round_trip, close


# ----------------------------------------------------------------------
# Set-up and measurement
# ----------------------------------------------------------------------
def build_engine(rows: int) -> tuple[VoiceQueryEngine, list[str]]:
    """A pre-processed flights engine and stored questions that parse back."""
    dataset = load_dataset("flights", num_rows=rows)
    spec = dataset.spec
    config = SummarizationConfig.create(
        table=spec.key, dimensions=spec.dimensions, targets=spec.targets, max_query_length=2
    )
    engine = VoiceQueryEngine(config, dataset.table)
    engine.preprocess()
    questions = []
    for stored in engine.store:
        question = question_for_query(stored.query)
        if engine.parser.parse(question).query == stored.query:
            questions.append(question)
    if not questions:
        raise RuntimeError("no stored question parses back to its query")
    return engine, questions[:QUESTIONS]


def exchange_bytes(engine: VoiceQueryEngine, question: str) -> tuple[bytes, bytes]:
    """The wire bytes of one ``/v1/ask`` exact hit and of its response."""
    request = http1.encode_request(
        "POST",
        "/v1/ask",
        f"{HOST}:8080",
        json.dumps(VoiceRequest(text=question).to_dict()).encode("utf-8"),
    )
    body = json.dumps(response_to_dict(engine.respond(question))).encode("utf-8")
    return request, http1.encode_response(200, {"Connection": "keep-alive"}, body)


def summarise(seconds: list[float], passes: list[float]) -> dict:
    quartiles = statistics.quantiles(seconds, n=4)
    return {
        "us_per_round_trip": round(statistics.median(seconds) * 1e6, 2),
        "us_quartiles": [round(quartiles[0] * 1e6, 2), round(quartiles[2] * 1e6, 2)],
        "loop_passes_per_request": round(statistics.median(passes), 3),
    }


async def run_all(engine, questions, requests: int, rounds: int) -> dict:
    """Time every stack, taking turns round by round so drift hits all alike."""
    request, response = exchange_bytes(engine, questions[0])
    starts = {
        "streams_echo": lambda: streams_echo(request, response),
        "protocol_echo": lambda: protocol_echo(request, response),
        "http_exact_hit": lambda: http_exact_hit(engine, questions),
    }
    loop = asyncio.get_running_loop()
    stacks = {}
    try:
        for name, start in starts.items():
            stacks[name] = await start()
        samples = {name: ([], []) for name in stacks}
        for round_trip, _ in stacks.values():
            for _ in range(WARMUP):
                await round_trip()
        for _ in range(rounds):
            for name, (round_trip, _) in stacks.items():
                gc.collect()
                before = loop.passes
                began = time.perf_counter()
                for _ in range(requests):
                    await round_trip()
                samples[name][0].append((time.perf_counter() - began) / requests)
                samples[name][1].append((loop.passes - before) / requests)
    finally:
        for _, close in stacks.values():
            await close()
    results = {"request_bytes": len(request), "response_bytes": len(response)}
    for name, (seconds, passes) in samples.items():
        results[name] = summarise(seconds, passes)
    return results


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI smoke")
    parser.add_argument("--output", default=None, help="also write the JSON to a file")
    args = parser.parse_args(argv)
    rows, requests, rounds = (300, 500, 3) if args.quick else (1000, 4000, 9)

    if hasattr(os, "sched_setaffinity"):
        # One CPU for client, server and service, as in one loop's deployment.
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    engine, questions = build_engine(rows)
    loop = CountingLoop()
    try:
        results = loop.run_until_complete(run_all(engine, questions, requests, rounds))
    except RuntimeError as exc:
        print(f"bench_http_floor: {exc}", file=sys.stderr)
        return 1
    finally:
        loop.close()
    floor = results["streams_echo"]["us_per_round_trip"]
    report = {
        "benchmark": "http_floor",
        "config": {
            "quick": args.quick,
            "rows": rows,
            "questions": len(questions),
            "requests_per_round": requests,
            "rounds": rounds,
        },
        "machine": {
            "cpu": cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "results": results,
        "voice_stack_over_streams_us": round(
            results["http_exact_hit"]["us_per_round_trip"] - floor, 2
        ),
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
