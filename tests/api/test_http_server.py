"""HTTP front-end protocol tests: routes, status codes, keep-alive."""

from __future__ import annotations

import asyncio
import json
from unittest import mock

import pytest

from repro.api import HttpClient, ServingConfig, VoiceHttpServer, VoiceRequest
from repro.api.envelopes import SCHEMA_VERSION
from repro.api.errors import TransportError
from repro.serving import VoiceService

from tests.serving.conftest import gate_answers


def run_with_server(engine, scenario, **config_fields):
    """Run ``scenario(service, server, client)`` against a live stack."""

    async def main():
        config = ServingConfig(concurrency=2, **config_fields)
        async with VoiceService(engine, config) as service:
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


class TestRoutes:
    def test_healthz_reports_ok_and_snapshot_version(self, engine):
        async def scenario(service, server, client):
            return await client.health()

        health = run_with_server(engine, scenario)
        assert health == {"status": "ok", "reasons": [], "snapshot_version": 0}

    def test_metrics_includes_service_and_session_counters(self, engine):
        async def scenario(service, server, client):
            await client.ask(VoiceRequest(text="what is the delay for East", session_id="s"))
            return await client.metrics()

        metrics = run_with_server(engine, scenario)
        assert metrics["completed"] == 1
        assert metrics["sessions"] == 1
        assert metrics["snapshot_version"] == 0
        assert "p99_ms" in metrics and "qps" in metrics

    def test_session_ids_with_unsafe_characters_round_trip(self, engine):
        async def scenario(service, server, client):
            unsafe = "user 42/one?two\r\nthree"
            await client.ask(
                VoiceRequest(text="what is the delay for East", session_id=unsafe)
            )
            return await client.session(unsafe)

        summary = run_with_server(engine, scenario)
        assert summary is not None
        assert summary["session_id"] == "user 42/one?two\r\nthree"
        assert summary["requests"] == 1

    def test_session_endpoint_describes_live_sessions(self, engine):
        async def scenario(service, server, client):
            first = await client.ask(
                VoiceRequest(text="what is the delay for East", session_id="abc")
            )
            summary = await client.session("abc")
            missing = await client.session("missing")
            return first, summary, missing

        first, summary, missing = run_with_server(engine, scenario)
        assert summary["requests"] == 1
        assert summary["schema_version"] == SCHEMA_VERSION
        assert summary["last_response"]["text"] == first.text
        assert missing is None

    def test_unknown_route_is_404_and_wrong_method_is_405(self, engine):
        async def scenario(service, server, client):
            return (
                await client._request("GET", "/v2/ask"),
                await client._request("GET", "/v1/ask"),
                await client._request("POST", "/v1/metrics"),
                await client._request("POST", "/healthz"),
            )

        results = run_with_server(engine, scenario)
        assert [status for status, _, _ in results] == [404, 405, 405, 405]


class TestAskValidation:
    def test_invalid_json_is_400(self, engine):
        async def scenario(service, server, client):
            body = b"this is not json"
            head = (
                f"POST /v1/ask HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode()
            return await raw_request(server, head + body)

        raw = run_with_server(engine, scenario)
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_wrong_schema_version_is_400(self, engine):
        async def scenario(service, server, client):
            payload = VoiceRequest(text="hello").to_dict()
            payload["schema_version"] = SCHEMA_VERSION + 7
            return await client._request("POST", "/v1/ask", body=payload)

        status, payload, _ = run_with_server(engine, scenario)
        assert status == 400
        assert payload["code"] == "bad_envelope"
        assert "schema_version" in payload["error"]

    def test_missing_text_is_400(self, engine):
        async def scenario(service, server, client):
            return await client._request(
                "POST", "/v1/ask", body={"schema_version": SCHEMA_VERSION}
            )

        status, payload, _ = run_with_server(engine, scenario)
        assert status == 400
        assert payload["code"] == "bad_envelope"
        assert "text" in payload["error"]

    def test_oversized_body_is_413(self, engine):
        async def scenario(service, server, client):
            head = (
                "POST /v1/ask HTTP/1.1\r\nHost: x\r\n"
                "Content-Length: 99999999\r\n\r\n"
            ).encode()
            return await raw_request(server, head)

        raw = run_with_server(engine, scenario)
        assert raw.startswith(b"HTTP/1.1 413 ")

    @pytest.mark.parametrize("bad_length", ["abc", "-5", "1_0", "+5"])
    def test_malformed_content_length_is_400_not_a_dropped_connection(
        self, engine, bad_length
    ):
        async def scenario(service, server, client):
            head = (
                f"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {bad_length}\r\n\r\n"
            ).encode()
            return await raw_request(server, head)

        raw = run_with_server(engine, scenario)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length" in raw

    def test_conflicting_content_lengths_are_400(self, engine):
        async def scenario(service, server, client):
            head = (
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 5\r\nContent-Length: 0\r\n\r\n"
            )
            return await raw_request(server, head)

        raw = run_with_server(engine, scenario)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b'"bad_content_length"' in raw

    def test_single_nul_byte_body_is_bad_json_not_413(self, engine):
        async def scenario(service, server, client):
            head = (
                "POST /v1/ask HTTP/1.1\r\nHost: x\r\n"
                "Content-Length: 1\r\nConnection: close\r\n\r\n"
            ).encode()
            return await raw_request(server, head + b"\x00")

        raw = run_with_server(engine, scenario)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"not valid JSON" in raw


class TestProtocol:
    def test_keep_alive_serves_many_requests_on_one_connection(self, engine):
        async def scenario(service, server, client):
            # The pooled client reuses its single connection here.
            for _ in range(5):
                await client.ask(VoiceRequest(text="what is the delay for East"))
            assert len(client._idle) == 1
            return (await client.metrics())["completed"]

        assert run_with_server(engine, scenario) == 5

    def test_connection_close_is_honored(self, engine):
        async def scenario(service, server, client):
            body = json.dumps(VoiceRequest(text="help").to_dict()).encode()
            head = (
                f"POST /v1/ask HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode()
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(head + body)
            await writer.drain()
            data = await reader.read()  # EOF only if the server closed
            writer.close()
            return data

        raw = run_with_server(engine, scenario)
        assert raw.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in raw

    def test_ephemeral_port_is_resolved(self, engine):
        async def scenario(service, server, client):
            return server.port, server.address

        port, address = run_with_server(engine, scenario)
        assert port != 0
        assert str(port) in address

    def test_server_stop_leaves_service_running(self, engine):
        async def main():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                server = VoiceHttpServer(service)
                await server.start()
                assert server.running
                await server.stop()
                assert not server.running
                # The service outlives its front-end.
                response = await service.submit(VoiceRequest(text="what is the delay for East"))
                return response.kind.value

        assert asyncio.run(main()) == "speech"

    def test_stop_closes_idle_connections_and_answers_in_flight_requests(self, engine):
        async def main():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                gate = gate_answers(service)
                server = VoiceHttpServer(service)
                await server.start()
                idle = HttpClient(server.host, server.port)
                await idle.health()  # leaves one idle keep-alive connection
                busy = HttpClient(server.host, server.port)
                pending = asyncio.ensure_future(busy.ask(VoiceRequest(text="help")))
                await asyncio.sleep(0.05)  # the request is being answered
                stopping = asyncio.ensure_future(server.stop())
                await asyncio.sleep(0.05)
                waited = not stopping.done()
                gate.set()
                response = await pending
                await stopping
                # The idle connection was closed, not left serving.
                with pytest.raises(TransportError):
                    await idle.health()
                await idle.aclose()
                await busy.aclose()
                return waited, response.kind.value

        assert asyncio.run(main()) == (True, "help")

    def test_handler_first_run_after_stop_exits_at_once(self, engine):
        # A connection accepted in the same loop pass as stop() gets its
        # handler task started only after stop() has returned.
        async def main():
            async with VoiceService(engine, ServingConfig()) as service:
                server = VoiceHttpServer(service)
                await server.start()
                await server.stop()
                reader = asyncio.StreamReader()  # never fed: a read would park
                writer = mock.Mock()
                await asyncio.wait_for(server._serve_connection(reader, writer), 1)
                return writer.close.called

        assert asyncio.run(main())


class CountingLoop(asyncio.SelectorEventLoop):
    """Counts event-loop passes (``_run_once`` calls)."""

    passes = 0

    def _run_once(self):
        self.passes += 1
        super()._run_once()


class TestLoopPasses:
    def test_exact_hit_takes_at_most_four_loop_passes(self, engine):
        # The round trip itself needs 4 passes.  A queue hop to a
        # worker task and a helper task under asyncio.wait_for made 9.
        async def main():
            loop = asyncio.get_running_loop()
            request = VoiceRequest(text="what is the delay in Winter")
            passes = []
            async with VoiceService(engine, ServingConfig()) as service:
                async with VoiceHttpServer(service) as server:
                    async with HttpClient(server.host, server.port, max_connections=1) as client:
                        await client.ask(request)  # opens the pooled connection
                        for _ in range(50):
                            before = loop.passes
                            response = await client.ask(request)
                            passes.append(loop.passes - before)
                            assert response.exact_match
            return passes

        with asyncio.Runner(loop_factory=CountingLoop) as runner:
            passes = runner.run(main())
        assert max(passes) <= 4
