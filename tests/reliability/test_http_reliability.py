"""HTTP-layer fault behavior: error bodies, Retry-After, dropped
connections, and the client's overload retries.

Satellite checks live here: 500/503 bodies carry stable ``code``
fields and never leak exception detail (that goes to the server log),
the client degrades non-JSON error bodies from intermediaries instead
of crashing on them, and 503 retries honor the server's Retry-After
pacing hint.
"""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

from repro.api import HttpClient, ServingConfig, VoiceHttpServer, VoiceRequest
from repro.api.clients import MAX_RETRY_AFTER_SECONDS, RETRY_BACKOFF_SECONDS
from repro.api.errors import ServiceOverloadedError, VoiceApiError
from repro.reliability import FAILPOINTS
from repro.serving import VoiceService


def run_with_server(engine, scenario):
    """Run ``scenario(service, server, client)`` against a live stack."""

    async def main():
        async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
            async with VoiceHttpServer(service) as server:
                async with HttpClient(server.host, server.port) as client:
                    return await scenario(service, server, client)

    return asyncio.run(main())


async def raw_request(server, payload: bytes) -> bytes:
    """Send raw bytes, return everything until the server closes."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(payload)
    await writer.drain()
    writer.write_eof()
    data = await reader.read()
    writer.close()
    return data


def post_ask(body: bytes) -> bytes:
    return (
        f"POST /v1/ask HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body


async def scripted_server(responses: list[bytes]):
    """A fake origin that pops one canned response per request."""
    served = {"count": 0}

    async def handle(reader, writer):
        while responses:
            line = await reader.readline()
            if not line:
                break
            length = 0
            while True:  # headers
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            if length:
                await reader.readexactly(length)
            served["count"] += 1
            writer.write(responses.pop(0))
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1], served


def plain_text_response(status: int, text: str, retry_after: str | None = None) -> bytes:
    body = text.encode()
    hint = f"Retry-After: {retry_after}\r\n" if retry_after is not None else ""
    return (
        f"HTTP/1.1 {status} X\r\nContent-Type: text/plain\r\n"
        f"Content-Length: {len(body)}\r\n{hint}Connection: keep-alive\r\n\r\n"
    ).encode() + body


class TestErrorBodies:
    def test_internal_errors_hide_exception_detail(self, engine, caplog):
        """Satellite: ``repr(exc)`` goes to the log, never the body."""

        async def scenario(service, server, client):
            async def explode(request):
                raise ValueError("secret-table-path /etc/passwd")

            service.submit = explode
            return await client._request(
                "POST", "/v1/ask", body=VoiceRequest(text="help").to_dict()
            )

        with caplog.at_level(logging.ERROR, logger="repro.api.http_server"):
            status, payload, _ = run_with_server(engine, scenario)
        assert status == 500
        assert payload["code"] == "internal_error"
        assert "secret" not in json.dumps(payload)
        assert "secret-table-path" in caplog.text  # operators still see it

    def test_overload_carries_code_and_retry_after(self, engine):
        async def scenario(service, server, client):
            async def reject(request):
                raise ServiceOverloadedError("queue full")

            service.submit = reject
            body = json.dumps(VoiceRequest(text="help").to_dict()).encode()
            return await raw_request(server, post_ask(body))

        raw = run_with_server(engine, scenario)
        assert raw.startswith(b"HTTP/1.1 503 ")
        assert b"Retry-After: 1\r\n" in raw
        assert b'"overloaded"' in raw

    def test_draining_service_answers_503(self, engine):
        async def scenario(service, server, client):
            await service.stop()  # the front-end outlives the service here
            return await client._request(
                "POST", "/v1/ask", body=VoiceRequest(text="help").to_dict()
            )

        status, payload, _ = run_with_server(engine, scenario)
        assert status == 503
        assert payload["code"] == "draining"


class TestConnectionDrop:
    def test_http_drop_failpoint_drops_once_then_recovers(self, engine):
        async def scenario(service, server, client):
            with FAILPOINTS.active(["http.drop:times=1"]):
                with pytest.raises(VoiceApiError, match="connection"):
                    await client.ask(VoiceRequest(text="help"))
            recovered = await client.ask(VoiceRequest(text="help"))
            return recovered

        recovered = run_with_server(engine, scenario)
        assert recovered.text  # the server survived its own chaos


class TestClientRetries:
    def test_ask_retries_503_and_succeeds(self, engine, monkeypatch):
        # An immediate Retry-After keeps the test fast while still
        # proving the hint (not the fallback backoff) paces the retry.
        monkeypatch.setattr("repro.api.http_server.RETRY_AFTER_SECONDS", 0)

        async def main():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                calls = {"count": 0}
                original = service.submit

                async def flaky(request):
                    calls["count"] += 1
                    if calls["count"] == 1:
                        raise ServiceOverloadedError("transient spike")
                    return await original(request)

                service.submit = flaky
                async with VoiceHttpServer(service) as server:
                    async with HttpClient(
                        server.host, server.port, overload_retries=1
                    ) as client:
                        return await client.ask(VoiceRequest(text="help")), calls["count"]

        response, calls = asyncio.run(main())
        assert response.text
        assert calls == 2  # rejected once, re-submitted once

    def test_retries_exhausted_surface_overload(self, engine, monkeypatch):
        monkeypatch.setattr("repro.api.http_server.RETRY_AFTER_SECONDS", 0)

        async def scenario(service, server, client):
            async def reject(request):
                raise ServiceOverloadedError("queue full")

            service.submit = reject
            async with HttpClient(
                server.host, server.port, overload_retries=1
            ) as retrying:
                with pytest.raises(ServiceOverloadedError, match="queue full"):
                    await retrying.ask(VoiceRequest(text="help"))

        run_with_server(engine, scenario)

    def test_retry_delay_honors_and_clamps_the_hint(self):
        client = HttpClient("localhost", 1)
        assert RETRY_BACKOFF_SECONDS == 0.05
        # A hinted delay wins over the backoff, clamped to the ceiling
        # (plus at most 10% jitter).
        hinted = client._retry_delay(0, 0.2)
        assert 0.2 <= hinted <= 0.2 * 1.1
        clamped = client._retry_delay(0, 3600.0)
        assert MAX_RETRY_AFTER_SECONDS <= clamped <= MAX_RETRY_AFTER_SECONDS * 1.1
        # Without a hint: capped exponential backoff.
        assert 0.05 <= client._retry_delay(0, None) <= 0.05 * 1.1
        assert client._retry_delay(10, None) <= 1.0 * 1.1

    def test_plain_text_503_reads_as_overload(self, engine):
        """Satellite: a proxy's text/plain 503 must not crash the client."""

        async def main():
            server, port, served = await scripted_server(
                [plain_text_response(503, "upstream scaling up, try later")]
            )
            async with server:
                async with HttpClient("127.0.0.1", port, overload_retries=0) as client:
                    with pytest.raises(ServiceOverloadedError, match="try later"):
                        await client.ask(VoiceRequest(text="help"))
            return served["count"]

        assert asyncio.run(main()) == 1

    def test_plain_text_503_retry_then_json_success(self, engine):
        """A non-JSON 503 still drives the retry loop to a real answer."""

        async def main():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                async with VoiceHttpServer(service) as real:
                    # Fetch one genuine envelope to replay from the fake.
                    async with HttpClient(real.host, real.port) as probe:
                        _, payload, _ = await probe._request(
                            "POST", "/v1/ask", body=VoiceRequest(text="help").to_dict()
                        )
            envelope = json.dumps(payload).encode()
            ok = (
                f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(envelope)}\r\nConnection: keep-alive\r\n\r\n"
            ).encode() + envelope
            server, port, served = await scripted_server(
                [plain_text_response(503, "busy", retry_after="0"), ok]
            )
            async with server:
                async with HttpClient("127.0.0.1", port, overload_retries=1) as client:
                    response = await client.ask(VoiceRequest(text="help"))
            return response, served["count"]

        response, served = asyncio.run(main())
        assert response.text
        assert served == 2

    def test_plain_text_200_is_a_protocol_error(self, engine):
        async def main():
            server, port, _ = await scripted_server(
                [plain_text_response(200, "hello from a confused proxy")]
            )
            async with server:
                async with HttpClient("127.0.0.1", port) as client:
                    with pytest.raises(VoiceApiError, match="invalid JSON"):
                        await client.ask(VoiceRequest(text="help"))

        asyncio.run(main())
