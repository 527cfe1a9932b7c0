"""Transport-agnostic voice clients: one protocol, two transports.

:class:`VoiceClient` is the contract application code programs against:
``ask`` a :class:`repro.api.envelopes.VoiceRequest` (or a plain
transcript string), read ``metrics``/``health``, inspect a ``session``.
Two implementations ship:

* :class:`InProcessClient` — wraps a running
  :class:`repro.serving.service.VoiceService` in the same event loop;
  zero serialization, the fastest possible transport.
* :class:`HttpClient` — speaks HTTP/1.1 to a
  :class:`repro.api.http_server.VoiceHttpServer` over a bounded pool of
  keep-alive connections, using only the standard library's asyncio
  streams.

Both raise the same exceptions
(:class:`repro.api.errors.ServiceOverloadedError` for admission-control
rejects, :class:`repro.api.errors.VoiceApiError` for everything else),
so swapping transports never changes caller error handling — the
property the serving benchmark leans on when it drives the identical
workload through both.  :class:`HttpClient` narrows transport failures
to :class:`repro.api.errors.TransportError`, still a ``VoiceApiError``.

The shard router keeps one :class:`HttpClient` per shard and relays
``/v1/ask`` bytes through :meth:`HttpClient.request`, so this module is
the only HTTP client in the codebase.
"""

from __future__ import annotations

import asyncio
import json
import random
from typing import Any, Protocol, runtime_checkable
from urllib.parse import quote

from repro.api.envelopes import (
    EnvelopeError,
    VoiceRequest,
    response_from_dict,
)
from repro.api.errors import (
    MaintenanceUnavailableError,
    ServiceOverloadedError,
    TransportError,
    VoiceApiError,
)
from repro.system.engine import VoiceResponse

#: Bytes allowed in one HTTP response body before the client gives up.
MAX_RESPONSE_BYTES = 4 * 1024 * 1024

#: Ceiling on a server-sent ``Retry-After`` hint (seconds) — a confused
#: or hostile intermediary must not park the client for minutes.
MAX_RETRY_AFTER_SECONDS = 5.0


def _as_request(request: VoiceRequest | str) -> VoiceRequest:
    return VoiceRequest(text=request) if isinstance(request, str) else request


def _json_payload(status: int, raw: bytes) -> dict[str, Any]:
    """A response body as a JSON object; non-JSON error bodies degrade."""
    try:
        payload = json.loads(raw) if raw else {}
    except json.JSONDecodeError as exc:
        if status == 200:
            # A success response must carry the envelope contract.
            raise VoiceApiError(f"server sent invalid JSON: {exc}") from exc
        # Error bodies may come from intermediaries (load balancers,
        # proxies) that speak plain text or HTML; the status code is
        # the contract then, not the body.  Degrade to a generic
        # payload instead of masking the real failure with a parse
        # error — a plain-text 503 must still read as overload.
        text = raw.decode("utf-8", errors="replace").strip()
        payload = {
            "code": "non_json_body",
            "error": text[:200] or f"HTTP {status} with non-JSON body",
        }
    if not isinstance(payload, dict):
        payload = {"value": payload}
    return payload


def decode_ask(status: int, raw: bytes) -> VoiceResponse:
    """Decode one ``/v1/ask`` reply into a response or the typed error.

    Shared by :class:`HttpClient` and the shard router, which relays raw
    reply bytes and decodes them only for in-process callers.
    """
    payload = _json_payload(status, raw)
    if status == 200:
        try:
            return response_from_dict(payload)
        except EnvelopeError as exc:
            raise VoiceApiError(f"server sent a malformed envelope: {exc}") from exc
    if status == 503:
        raise ServiceOverloadedError(
            str(payload.get("error", "service overloaded")), status=503
        )
    raise VoiceApiError(
        f"POST /v1/ask failed with {status}: {payload.get('error', payload)}",
        status=status,
    )


@runtime_checkable
class VoiceClient(Protocol):
    """What every transport must offer (see module docstring)."""

    async def ask(self, request: VoiceRequest | str) -> VoiceResponse:
        """Answer one voice request."""
        ...

    async def append(self, rows: list) -> dict[str, Any]:
        """Queue appended rows for background maintenance.

        ``rows`` are JSON-friendly (objects keyed by column name, or
        arrays in schema order).  Returns the acceptance receipt
        ``{"accepted_rows": n, "journal_seq": seq}`` — with durability
        configured server-side, a returned receipt means the batch
        survives crashes.
        """
        ...

    async def metrics(self) -> dict[str, Any]:
        """The service's aggregate metrics summary."""
        ...

    async def health(self) -> dict[str, Any]:
        """Liveness information."""
        ...

    async def session(self, session_id: str) -> dict[str, Any] | None:
        """A session summary, or None when the session is unknown."""
        ...

    async def store_digest(self) -> dict[str, Any]:
        """The current snapshot's store digest (byte-parity probe)."""
        ...

    async def aclose(self) -> None:
        """Release transport resources."""
        ...


class InProcessClient:
    """A :class:`VoiceClient` over a service in the same event loop."""

    def __init__(self, service):
        self._service = service

    async def __aenter__(self) -> "InProcessClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def ask(self, request: VoiceRequest | str) -> VoiceResponse:
        return await self._service.submit(_as_request(request))

    async def append(self, rows: list) -> dict[str, Any]:
        table = self._service.build_append_table(rows)
        seq = self._service.request_append(table)
        return {"accepted_rows": table.num_rows, "journal_seq": seq}

    async def metrics(self) -> dict[str, Any]:
        return self._service.metrics_summary()

    async def health(self) -> dict[str, Any]:
        health = self._service.health()
        health["snapshot_version"] = self._service.registry.version
        return health

    async def session(self, session_id: str) -> dict[str, Any] | None:
        return self._service.sessions.describe(session_id)

    async def store_digest(self) -> dict[str, Any]:
        return self._service.store_digest()

    async def aclose(self) -> None:
        """Nothing to release; the caller owns the service lifecycle."""


class _Connection:
    """One keep-alive client connection (reader/writer pair)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:
            pass


class HttpClient:
    """A :class:`VoiceClient` speaking HTTP/1.1 to a voice server.

    Parameters
    ----------
    host / port:
        The server's bind address (see
        :attr:`repro.api.http_server.VoiceHttpServer.port` for the
        resolved ephemeral port).
    max_connections:
        Bound on concurrently open keep-alive connections; ``ask``
        callers beyond it wait for a connection to free up.
    timeout:
        Seconds allowed per request round-trip.
    overload_retries:
        Times :meth:`ask` re-submits after a 503 before surfacing
        :class:`ServiceOverloadedError`.  A 503 means the request was
        rejected *before* processing, so re-submitting cannot double-
        apply anything.  0 disables retrying.
    retry_backoff:
        Base of the capped exponential backoff (seconds, with up to 10%
        deterministic jitter) between 503 retries — used when the
        server sends no ``Retry-After`` hint; a hint takes precedence
        (clamped to ``MAX_RETRY_AFTER_SECONDS``).
    retry_seed:
        Seed of the jitter RNG, keeping retry pacing reproducible.

    Connections are pooled and reused across requests (HTTP/1.1
    keep-alive); a connection the server closed between requests is
    retried once on a fresh one.
    """

    def __init__(
        self,
        host: str,
        port: int,
        max_connections: int = 8,
        timeout: float = 30.0,
        overload_retries: int = 2,
        retry_backoff: float = 0.05,
        retry_seed: int = 0,
    ):
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        if overload_retries < 0:
            raise ValueError(f"overload_retries must be >= 0, got {overload_retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self._host = host
        self._port = int(port)
        self._timeout = float(timeout)
        self._overload_retries = int(overload_retries)
        self._retry_backoff = float(retry_backoff)
        self._jitter = random.Random(retry_seed)
        self._limiter = asyncio.Semaphore(max_connections)
        self._idle: list[_Connection] = []
        self._closed = False

    async def __aenter__(self) -> "HttpClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    @property
    def address(self) -> str:
        """The server base URL this client talks to."""
        return f"http://{self._host}:{self._port}"

    # ------------------------------------------------------------------
    # VoiceClient surface
    # ------------------------------------------------------------------
    async def ask(self, request: VoiceRequest | str) -> VoiceResponse:
        body = json.dumps(_as_request(request).to_dict(), allow_nan=False).encode("utf-8")
        for attempt in range(self._overload_retries + 1):
            status, raw, retry_after = await self.request("POST", "/v1/ask", body)
            if status == 503 and attempt < self._overload_retries:
                # Backpressure: the request was rejected before any
                # processing, so re-submitting is always safe.  Honor
                # the server's Retry-After pacing hint when present.
                await asyncio.sleep(self._retry_delay(attempt, retry_after))
                continue
            return decode_ask(status, raw)
        raise AssertionError("unreachable")  # pragma: no cover

    def _retry_delay(self, attempt: int, retry_after: float | None) -> float:
        if retry_after is not None:
            delay = min(retry_after, MAX_RETRY_AFTER_SECONDS)
        else:
            delay = min(1.0, self._retry_backoff * 2**attempt)
        return delay * (1.0 + 0.1 * self._jitter.random())

    async def append(self, rows: list) -> dict[str, Any]:
        status, payload, _ = await self._request(
            "POST", "/v1/append", body={"rows": rows}
        )
        if status == 202:
            return payload
        if status == 503:
            # Unlike /v1/ask overload, appends are not auto-retried: a
            # breaker-open 503 will keep failing for the cooldown, and
            # the caller owns the decision to buffer or drop.  Same
            # exception type the in-process transport raises.
            raise MaintenanceUnavailableError(
                str(payload.get("error", "maintenance unavailable"))
            )
        raise VoiceApiError(
            f"POST /v1/append failed with {status}: {payload.get('error', payload)}",
            status=status,
        )

    async def metrics(self) -> dict[str, Any]:
        return await self._get_json("/v1/metrics")

    async def health(self) -> dict[str, Any]:
        return await self._get_json("/healthz")

    async def store_digest(self) -> dict[str, Any]:
        return await self._get_json("/v1/store/digest")

    async def session(self, session_id: str) -> dict[str, Any] | None:
        # Session ids are arbitrary strings; percent-encode so spaces
        # or control characters cannot corrupt the request line.
        path = f"/v1/sessions/{quote(session_id, safe='')}"
        status, payload, _ = await self._request("GET", path)
        if status == 404:
            return None
        if status != 200:
            raise VoiceApiError(f"GET {path} failed with {status}", status=status)
        return payload

    async def aclose(self) -> None:
        """Close every pooled connection."""
        self.close()

    def close(self) -> None:
        """Synchronous :meth:`aclose`, for callers outside a coroutine.

        Requests already in flight finish; their connections are then
        closed instead of pooled, and new requests fail.
        """
        self._closed = True
        while self._idle:
            self._idle.pop().close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, bytes, float | None]:
        """One round trip: ``(status, raw body, Retry-After seconds)``.

        Any HTTP status is returned, not raised.  Raises
        :class:`TransportError` when no well-formed reply arrives and
        :class:`VoiceApiError` when none arrives within ``timeout``.
        """
        if self._closed:
            raise TransportError("client is closed")
        async with self._limiter:
            # A pooled connection may have been closed server-side while
            # idle; retry exactly once on a fresh connection.
            for attempt in (0, 1):
                reused = bool(self._idle)
                connection = self._idle.pop() if self._idle else await self._connect()
                try:
                    result = await asyncio.wait_for(
                        self._round_trip(connection, method, path, body),
                        timeout=self._timeout,
                    )
                except TransportError:
                    # A garbled reply: the server answered, so do not
                    # re-send the request.
                    connection.close()
                    raise
                except asyncio.TimeoutError as exc:
                    # Checked before OSError, which TimeoutError subclasses.
                    connection.close()
                    raise VoiceApiError(
                        f"{method} {path}: no response within {self._timeout:.0f}s"
                    ) from exc
                except (OSError, asyncio.IncompleteReadError) as exc:
                    connection.close()
                    if reused and attempt == 0:
                        continue
                    raise TransportError(
                        f"{method} {path}: connection failed: {exc!r}"
                    ) from exc
                except BaseException:
                    # Protocol errors leave the stream in an unknown
                    # state; never return such a connection to the pool.
                    connection.close()
                    raise
                if self._closed:
                    connection.close()
                else:
                    self._idle.append(connection)
                return result
        raise AssertionError("unreachable")  # pragma: no cover

    async def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict[str, Any], float | None]:
        """:meth:`request` with a JSON body in and a JSON object out."""
        encoded = b"" if body is None else json.dumps(body, allow_nan=False).encode("utf-8")
        status, raw, retry_after = await self.request(method, path, encoded)
        return status, _json_payload(status, raw), retry_after

    async def _get_json(self, path: str) -> dict[str, Any]:
        status, payload, _ = await self._request("GET", path)
        if status != 200:
            raise VoiceApiError(f"GET {path} failed with {status}", status=status)
        return payload

    async def _connect(self) -> _Connection:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self._host, self._port), timeout=self._timeout
            )
        except asyncio.TimeoutError as exc:
            raise VoiceApiError(
                f"cannot connect to {self.address} within {self._timeout:.0f}s"
            ) from exc
        except OSError as exc:
            raise TransportError(f"cannot connect to {self.address}: {exc!r}") from exc
        return _Connection(reader, writer)

    async def _round_trip(
        self, connection: _Connection, method: str, path: str, body: bytes
    ) -> tuple[int, bytes, float | None]:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        connection.writer.write(head.encode("ascii") + body)
        await connection.writer.drain()

        status_line = await connection.reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise TransportError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        content_length = 0
        retry_after: float | None = None
        while True:
            line = await connection.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                value = value.strip()
                if not (value.isascii() and value.isdigit()):
                    raise TransportError(f"malformed Content-Length {value!r}")
                content_length = int(value)
            elif name == "retry-after":
                # Seconds form only (the HTTP-date form is not worth a
                # parser here); ignore anything unparseable.
                try:
                    retry_after = max(0.0, float(value.strip()))
                except ValueError:
                    pass
        if content_length > MAX_RESPONSE_BYTES:
            raise VoiceApiError(f"response too large ({content_length} bytes)")
        raw = await connection.reader.readexactly(content_length) if content_length else b""
        return status, raw, retry_after
