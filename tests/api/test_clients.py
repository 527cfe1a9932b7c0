"""Session semantics through the public clients, on both transports.

The acceptance bar for the API redesign: a REPEAT request through
either client replays *byte-identical* text to what the interactive
:meth:`VoiceQueryEngine.ask` would answer for the same session history,
sessions evict at the LRU bound, and unknown session ids degrade to the
stateless answer instead of erroring.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import (
    HttpClient,
    InProcessClient,
    ServingConfig,
    VoiceHttpServer,
    VoiceRequest,
)
from repro.api.errors import TransportError, VoiceApiError
from repro.serving import VoiceService

#: A conversation exercising data answers, repeats (including repeated
#: repeats) and an unparseable utterance, all on one session.
SCRIPT = [
    "what is the delay for East",
    "repeat",
    "what is the delay for West in Winter",
    "repeat",
    "repeat",
    "tell me something unrelated",
    "repeat",
]


def interactive_replay(engine, script=SCRIPT) -> list[str]:
    """What the single-caller interactive engine answers for ``script``."""
    return [engine.ask(text).text for text in script]


async def client_replay(client, session_id: str, script=SCRIPT) -> list[str]:
    texts = []
    for text in script:
        response = await client.ask(VoiceRequest(text=text, session_id=session_id))
        texts.append(response.text)
    return texts


class TestInProcessClientSessions:
    def test_repeat_matches_interactive_ask_byte_for_byte(self, engine, twin_engine):
        async def scenario():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                return await client_replay(InProcessClient(service), "s1")

        served = asyncio.run(scenario())
        assert served == interactive_replay(twin_engine)

    def test_sessions_are_isolated_from_each_other(self, engine):
        async def scenario():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                client = InProcessClient(service)
                first = await client.ask(
                    VoiceRequest(text="what is the delay for East", session_id="a")
                )
                await client.ask(
                    VoiceRequest(text="what is the delay for Winter", session_id="b")
                )
                replay = await client.ask(VoiceRequest(text="repeat", session_id="a"))
                return first, replay

        first, replay = asyncio.run(scenario())
        assert replay.text == first.text  # b's answer did not leak into a

    def test_unknown_session_repeat_degrades_to_stateless_answer(self, engine):
        async def scenario():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                with_session = await service.submit(
                    VoiceRequest(text="repeat", session_id="fresh-session")
                )
                stateless = await service.submit(VoiceRequest(text="repeat"))
                return with_session, stateless

        with_session, stateless = asyncio.run(scenario())
        # Both fall back to the engine's stateless repeat answer (help).
        assert with_session.text == stateless.text == engine.respond("repeat").text

    def test_sessions_evict_at_the_lru_bound(self, engine):
        async def scenario():
            config = ServingConfig(concurrency=2, session_capacity=2)
            async with VoiceService(engine, config) as service:
                client = InProcessClient(service)
                answers = {}
                for session in ("a", "b", "c"):
                    answers[session] = await client.ask(
                        VoiceRequest(
                            text="what is the delay for East", session_id=session
                        )
                    )
                assert "a" not in service.sessions  # the LRU bound evicted it
                evicted_replay = await client.ask(
                    VoiceRequest(text="repeat", session_id="a")
                )
                live_replay = await client.ask(
                    VoiceRequest(text="repeat", session_id="c")
                )
                return service, answers, evicted_replay, live_replay

        service, answers, evicted_replay, live_replay = asyncio.run(scenario())
        # "a" was evicted: repeat degrades to the stateless answer ...
        assert evicted_replay.text == engine.respond("repeat").text
        # ... while the still-live "c" replays its real answer.
        assert live_replay.text == answers["c"].text

    def test_plain_string_submit_shim_stays_stateless(self, engine):
        async def scenario():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                await service.submit(VoiceRequest(text="what is the delay for East"))
                return await service.submit(VoiceRequest(text="repeat")), len(service.sessions)

        replay, live_sessions = asyncio.run(scenario())
        assert replay.text == engine.respond("repeat").text
        assert live_sessions == 0  # the shim never creates sessions


class TestHttpClientSessions:
    def test_http_repeat_matches_interactive_ask_byte_for_byte(self, engine, twin_engine):
        async def scenario():
            async with VoiceService(engine, ServingConfig(concurrency=4)) as service:
                async with VoiceHttpServer(service) as server:
                    async with HttpClient(server.host, server.port) as client:
                        return await client_replay(client, "http-session")

        served = asyncio.run(scenario())
        assert served == interactive_replay(twin_engine)

    def test_http_unknown_session_degrades(self, engine):
        async def scenario():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                async with VoiceHttpServer(service) as server:
                    async with HttpClient(server.host, server.port) as client:
                        return await client.ask(
                            VoiceRequest(text="repeat", session_id="never-before-seen")
                        )

        response = asyncio.run(scenario())
        assert response.text == engine.respond("repeat").text

    def test_transports_answer_identically(self, engine):
        """The same session history answers the same on both transports."""

        async def scenario():
            async with VoiceService(engine, ServingConfig(concurrency=4)) as service:
                in_process = await client_replay(
                    InProcessClient(service), "session-in-process"
                )
                async with VoiceHttpServer(service) as server:
                    async with HttpClient(server.host, server.port) as client:
                        over_http = await client_replay(client, "session-http")
                return in_process, over_http

        in_process, over_http = asyncio.run(scenario())
        assert in_process == over_http

    def test_concurrent_http_sessions_keep_their_own_repeat_state(self, engine):
        async def scenario():
            async with VoiceService(engine, ServingConfig(concurrency=4)) as service:
                async with VoiceHttpServer(service) as server:
                    async with HttpClient(server.host, server.port, max_connections=4) as client:

                        async def converse(session, question):
                            first = await client.ask(
                                VoiceRequest(text=question, session_id=session)
                            )
                            replay = await client.ask(
                                VoiceRequest(text="repeat", session_id=session)
                            )
                            return first.text, replay.text

                        pairs = await asyncio.gather(
                            converse("s-east", "what is the delay for East"),
                            converse("s-west", "what is the delay for West"),
                            converse("s-winter", "what is the delay for Winter"),
                        )
                        return pairs

        for first, replay in asyncio.run(scenario()):
            assert replay == first


class TestClientMetadata:
    def test_request_id_round_trips_over_http(self, engine):
        async def scenario():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                async with VoiceHttpServer(service) as server:
                    async with HttpClient(server.host, server.port) as client:
                        status, payload, _ = await client._request(
                            "POST",
                            "/v1/ask",
                            body=VoiceRequest(
                                text="what is the delay for East",
                                request_id="corr-42",
                            ).to_dict(),
                        )
                        return status, payload

        status, payload = asyncio.run(scenario())
        assert status == 200
        assert payload["request_id"] == "corr-42"

    def test_invalid_client_arguments(self):
        with pytest.raises(ValueError, match="max_connections"):
            HttpClient("127.0.0.1", 80, max_connections=0)


async def _stub_server(reply: bytes | None) -> asyncio.base_events.Server:
    """A one-shot HTTP stub: reads a request, writes ``reply`` raw, hangs up.

    ``reply=None`` never answers (the client must time out).
    """

    async def handle(reader, writer):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n"):
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            await reader.readexactly(length)
            if reply is None:
                await reader.read()  # until the client gives up
            else:
                writer.write(reply)
                await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def _against_stub(reply: bytes | None, call, timeout: float = 30.0):
    """The exception ``call(client)`` raises against a stub replying ``reply``."""

    async def scenario():
        server = await _stub_server(reply)
        port = server.sockets[0].getsockname()[1]
        try:
            async with HttpClient("127.0.0.1", port, timeout=timeout) as client:
                with pytest.raises(VoiceApiError) as caught:
                    await call(client)
                return caught.value
        finally:
            server.close()

    return asyncio.run(scenario())


def _get_health(client):
    return client.request("GET", "/healthz")


class TestTransportErrors:
    """The failover rule: only transport failures are ConnectionErrors.

    A caller retries elsewhere on ``ConnectionError``, so a refused,
    torn or garbled reply must raise :class:`TransportError`, while an
    HTTP error status or a timeout must not.
    """

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"1_0", b"+5"])
    def test_bad_content_length_is_a_transport_error(self, length):
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: " + length + b"\r\n\r\n{}"
        error = _against_stub(reply, _get_health)
        assert isinstance(error, TransportError)
        assert isinstance(error, ConnectionError)
        assert error.status is None
        assert "Content-Length" in str(error)

    def test_conflicting_content_lengths_are_a_transport_error(self):
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}"
        error = _against_stub(reply, _get_health)
        assert isinstance(error, TransportError)
        assert "Content-Length" in str(error)

    def test_over_long_response_head_is_a_transport_error(self):
        # One 70 KB header line: past the stream's 64 KiB head limit.
        reply = b"HTTP/1.1 200 OK\r\nX-Big: " + b"a" * 70_000 + b"\r\nContent-Length: 2\r\n\r\n{}"
        error = _against_stub(reply, _get_health)
        assert isinstance(error, TransportError)
        assert isinstance(error, ConnectionError)
        assert error.status is None

    def test_garbled_status_line_is_a_transport_error(self):
        error = _against_stub(b"SPDY/9 ??\r\n\r\n", _get_health)
        assert isinstance(error, TransportError)

    def test_refused_connection_is_a_transport_error(self):
        async def scenario():
            server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            async with HttpClient("127.0.0.1", port) as client:
                with pytest.raises(TransportError) as caught:
                    await client.ask(VoiceRequest(text="what is the delay for East"))
                return caught.value

        error = asyncio.run(scenario())
        assert isinstance(error, ConnectionError)
        assert error.status is None

    def test_hang_up_mid_body_is_a_transport_error(self):
        reply = b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"partial'
        error = _against_stub(reply, lambda client: client.ask(VoiceRequest(text="hello")))
        assert isinstance(error, TransportError)
        assert isinstance(error, ConnectionError)
        assert error.status is None

    def test_closed_client_is_a_transport_error(self):
        async def scenario():
            client = HttpClient("127.0.0.1", 9)
            await client.aclose()
            with pytest.raises(TransportError):
                await client.health()

        asyncio.run(scenario())

    def test_server_error_status_is_not_a_connection_error(self):
        body = b'{"code": "internal_error", "error": "boom"}'
        reply = (
            b"HTTP/1.1 500 Internal Server Error\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        error = _against_stub(reply, lambda client: client.ask(VoiceRequest(text="hello")))
        assert type(error) is VoiceApiError
        assert error.status == 500
        assert not isinstance(error, ConnectionError)
        assert "boom" in str(error)

    def test_timeout_is_not_a_connection_error(self):
        error = _against_stub(None, _get_health, timeout=0.2)
        assert not isinstance(error, ConnectionError)
        assert error.status is None
        assert "no response within" in str(error)
