"""HTTP/1.1 framing against independent implementations.

The server is driven by the standard library's ``http.client`` and the
client talks to an ``http.server`` stub, so each side is checked
against an implementation other than the framing module they share.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import HttpClient, ServingConfig, VoiceHttpServer, VoiceRequest, http1
from repro.api.errors import ServiceOverloadedError, TransportError
from repro.serving import VoiceService


def read_head(data: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await http1.read_head(reader)

    return asyncio.run(run())


class TestFraming:
    def test_head_fields_are_lower_cased_and_repeats_comma_joined(self):
        start, headers = read_head(
            b"POST /v1/ask?x=1 HTTP/1.1\r\nHOST: a\r\nX-Tag: one\r\nx-tag:  two \r\n\r\nbody"
        )
        assert start == ["POST", "/v1/ask?x=1", "HTTP/1.1"]
        assert headers == {"host": "a", "x-tag": "one, two"}

    def test_status_line_keeps_the_reason_phrase_whole(self):
        start, _ = read_head(b"HTTP/1.1 503 Service Unavailable\r\n\r\n")
        assert start == ["HTTP/1.1", "503", "Service Unavailable"]

    @pytest.mark.parametrize(
        "line",
        [
            b"Content-Length : 5",  # whitespace before the colon
            b"X-No-Colon",
            b"Host: a\r\n  folded",  # obs-fold, even with no colon
            b"Host: a\r\n\tX-Folded: b",
        ],
    )
    def test_malformed_header_lines_do_not_frame(self, line):
        with pytest.raises(http1.FramingError, match="malformed header line"):
            read_head(b"POST /v1/ask HTTP/1.1\r\n" + line + b"\r\n\r\nhello")

    @pytest.mark.parametrize("value, length", [(None, 0), ("0", 0), ("42", 42), ("7, 7", 7)])
    def test_content_length_accepts_digits_and_agreeing_repeats(self, value, length):
        headers = {} if value is None else {"content-length": value}
        assert http1.content_length(headers) == length

    @pytest.mark.parametrize("value", ["", "abc", "-5", "+5", "1_0", " 1 0", "4, 5", "٣"])
    def test_content_length_rejects_everything_else(self, value):
        with pytest.raises(http1.FramingError, match="Content-Length"):
            http1.content_length({"content-length": value})

    def test_encoded_message_is_one_buffer_with_its_length(self):
        message = http1.encode_response(503, {"Retry-After": 1}, b"{}")
        assert message == (
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n"
            b"Content-Length: 2\r\nRetry-After: 1\r\n\r\n{}"
        )


def run_with_server(engine, scenario):
    async def main():
        async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
            async with VoiceHttpServer(service) as server:
                return await scenario(service, server)

    return asyncio.run(main())


class TestServerAgainstHttpClientStdlib:
    def test_keep_alive_requests_then_503_and_413_on_one_connection(self, engine):
        ask = json.dumps(VoiceRequest(text="what is the delay for East").to_dict())

        def converse(port):
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            replies = []
            for method, path, body in (
                ("GET", "/healthz", None),
                ("POST", "/v1/ask", ask),
                ("GET", "/v1/sessions/missing", None),
            ):
                connection.request(method, path, body=body)
                response = connection.getresponse()
                replies.append((response.status, json.loads(response.read())))
            sock = connection.sock
            overloaded.set()
            connection.request("POST", "/v1/ask", body=ask)
            response = connection.getresponse()
            replies.append((response.status, response.getheader("Retry-After"), response.read()))
            assert connection.sock is sock  # every reply so far kept the connection
            connection.putrequest("POST", "/v1/ask")
            connection.putheader("Content-Length", str(99_999_999))
            connection.endheaders()
            response = connection.getresponse()
            replies.append((response.status, response.getheader("Connection"), response.read()))
            connection.close()
            return replies

        overloaded = threading.Event()

        async def scenario(service, server):
            answer = service.submit

            async def submit(request):
                if overloaded.is_set():
                    raise ServiceOverloadedError("queue full")
                return await answer(request)

            service.submit = submit
            return await asyncio.to_thread(converse, server.port)

        health, spoken, missing, rejected, too_large = run_with_server(engine, scenario)
        assert health == (200, {"status": "ok", "reasons": [], "snapshot_version": 0})
        assert spoken[0] == 200 and spoken[1]["kind"] == "speech"
        assert missing[0] == 404
        assert rejected[:2] == (503, "1") and b'"overloaded"' in rejected[2]
        assert too_large[:2] == (413, "close") and b'"body_too_large"' in too_large[2]

    def test_head_written_one_byte_per_write(self, engine):
        async def scenario(service, server):
            body = json.dumps(VoiceRequest(text="help").to_dict()).encode()
            message = (
                f"POST /v1/ask HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode() + body
            reader, writer = await asyncio.open_connection(server.host, server.port)
            for index in range(len(message)):
                writer.write(message[index : index + 1])
                await writer.drain()
                await asyncio.sleep(0)
            data = await reader.read()
            writer.close()
            return data

        raw = run_with_server(engine, scenario)
        assert raw.startswith(b"HTTP/1.1 200 ")
        assert b'"kind": "help"' in raw

    def test_pipelined_requests_are_answered_in_order(self, engine):
        async def scenario(service, server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(
                b"GET /v1/sessions/missing HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            data = await reader.read()
            writer.close()
            return data

        raw = run_with_server(engine, scenario)
        assert raw.startswith(b"HTTP/1.1 404 ")
        assert raw.count(b"HTTP/1.1 ") == 2
        assert raw.index(b"HTTP/1.1 200 ") > raw.index(b'"unknown_session"')


    def test_a_malformed_header_line_closes_the_connection_unanswered(self, engine):
        async def scenario(service, server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(
                b"POST /v1/ask HTTP/1.1\r\nHost: x\r\nContent-Length : 2\r\n"
                b"Connection: close\r\n\r\n{}"
            )
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            return data

        assert run_with_server(engine, scenario) == b""


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    connections = 0

    def setup(self):
        super().setup()
        type(self).connections += 1

    def log_message(self, *args):
        pass

    def do_GET(self):
        self._reply(200, {"status": "ok", "path": self.path})

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if self.path == "/busy":
            self._reply(503, {"code": "overloaded"}, {"Retry-After": "2"})
        else:
            self._reply(200, {"echo": body.decode()})

    def _reply(self, status, payload, headers=()):
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in dict(headers).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


class TestClientAgainstHttpServerStdlib:
    def test_keep_alive_round_trips_on_one_connection(self):
        _StubHandler.connections = 0
        stub = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()

        async def scenario():
            async with HttpClient("127.0.0.1", stub.server_address[1]) as client:
                return [
                    await client.health(),
                    await client.request("POST", "/echo", b"hello"),
                    await client.request("POST", "/busy", b"{}"),
                    await client.session("a b"),
                ]

        try:
            health, echo, busy, session = asyncio.run(scenario())
        finally:
            stub.shutdown()
            stub.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert health == {"status": "ok", "path": "/healthz"}
        assert echo == (200, b'{"echo": "hello"}', None)
        assert busy == (503, b'{"code": "overloaded"}', 2.0)
        assert session == {"status": "ok", "path": "/v1/sessions/a%20b"}
        assert _StubHandler.connections == 1

    def test_a_reply_with_a_malformed_header_line_is_a_transport_error(self):
        async def reply(reader, writer):
            await http1.read_head(reader)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length : 2\r\n\r\n{}")
            await writer.drain()
            writer.close()

        async def scenario():
            stub = await asyncio.start_server(reply, "127.0.0.1", 0)
            port = stub.sockets[0].getsockname()[1]
            try:
                async with HttpClient("127.0.0.1", port) as client:
                    with pytest.raises(TransportError, match="malformed header line"):
                        await client.health()
            finally:
                stub.close()
                await stub.wait_closed()

        asyncio.run(scenario())
