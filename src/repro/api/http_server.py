"""The stdlib-asyncio HTTP front-end over the serving service.

:class:`VoiceHttpServer` turns a running
:class:`repro.serving.service.VoiceService` into a network endpoint
using nothing beyond ``asyncio.start_server`` — no third-party web
framework, matching the repo's no-new-dependencies constraint.  It
speaks enough HTTP/1.1 for real clients: keep-alive connections,
``Content-Length`` framing (:mod:`repro.api.http1`, shared with the
client), JSON bodies, meaningful status codes.

Endpoints (the ``/v1`` public contract)
---------------------------------------
``POST /v1/ask``
    Body: a :class:`repro.api.envelopes.VoiceRequest` envelope
    (``{"schema_version": 1, "text": ..., "session_id": ...,
    "request_id": ...}``).  Answer: the response envelope from
    :func:`repro.api.envelopes.response_to_dict`, echoing
    ``request_id``.  ``400`` for malformed envelopes, ``503`` when
    admission control rejects the request (backpressure), ``500`` for
    unexpected engine errors.
``POST /v1/append``
    Body: ``{"rows": [...]}`` where each row is an object keyed by
    column name or an array in schema order.  Queues the rows for
    background maintenance and answers ``202 Accepted`` with
    ``{"accepted_rows": n, "journal_seq": seq}`` — when the service
    has a ``data_dir``, the batch is journaled before the 202, so the
    ack is durable across crashes (``journal_seq`` is null otherwise).
    ``400`` for rows that do not match the table schema, ``503`` with
    code ``maintenance_unavailable`` while the maintenance circuit
    breaker is open.
``GET /v1/metrics``
    The service's aggregate metrics summary
    (:meth:`repro.serving.service.ServiceMetrics.summary`) plus the
    current snapshot version and live session count.
``GET /v1/store/digest``
    A sha256 digest of the current snapshot's canonical store payload
    — the byte-parity probe that checks two deployments (or a live and
    a recovered one) serve the same store.
``GET /v1/sessions/<id>``
    Summary of one session (request count, timestamps, last response
    envelope); ``404`` for unknown or evicted sessions.
``GET /healthz``
    Liveness and readiness: ``200 {"status": "ok"|"degraded", "reasons":
    [...]}`` while the service answers (degraded = impaired but serving,
    e.g. the worker pool fell back to serial or the maintenance breaker
    is open), ``503 {"status": "draining"}`` once it is stopping.
    (Unversioned by convention, like Kubernetes probes.)

Anything else is ``404``; non-GET/POST methods are ``405``; bodies
beyond ``MAX_BODY_BYTES`` are ``413``; a malformed or conflicting
``Content-Length`` is ``400``.

Error bodies are machine-readable: every non-200 carries a stable
``code`` field (e.g. ``overloaded``, ``bad_envelope``, ``internal_error``)
next to a human-readable ``error``.  Unexpected exception detail goes to
the server-side log only — ``repr(exc)`` of an engine bug is debugging
surface for operators, not response surface for clients.  ``503``
responses carry a ``Retry-After`` hint so well-behaved clients back off.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Any
from urllib.parse import unquote

from repro.api import http1
from repro.api.envelopes import EnvelopeError, VoiceRequest, response_to_dict
from repro.api.errors import MaintenanceUnavailableError, ServiceOverloadedError
from repro.reliability import faults

#: Bytes allowed in one request body (voice transcripts are tiny; this
#: only bounds hostile input).
MAX_BODY_BYTES = 1 * 1024 * 1024

#: Back-off hint (seconds) sent with every 503.
RETRY_AFTER_SECONDS = 1

logger = logging.getLogger(__name__)

#: Each route's one allowed method; every session id shares one route.
_SESSION_ROUTE = "/v1/sessions/<id>"
_ROUTE_METHODS = {
    "/v1/ask": "POST",
    "/v1/append": "POST",
    "/v1/metrics": "GET",
    "/v1/store/digest": "GET",
    _SESSION_ROUTE: "GET",
    "/healthz": "GET",
}

#: Framing errors: the server answers them, then closes the connection.
_BAD_LENGTH = 400, {"code": "bad_content_length", "error": "malformed Content-Length header"}
_TOO_LARGE = 413, {
    "code": "body_too_large",
    "error": f"request body exceeds {MAX_BODY_BYTES} bytes",
}


class VoiceHttpServer:
    """Serve a :class:`VoiceService` over HTTP (see module docstring).

    Parameters
    ----------
    service:
        A started :class:`repro.serving.service.VoiceService`; the
        server forwards ``/v1/ask`` bodies to ``service.submit`` and
        reads metrics/sessions from the service's accessors.
    host / port:
        Bind address; port 0 picks an ephemeral port, readable from
        :attr:`port` once started.

    Use as an async context manager, or :meth:`start` / :meth:`stop`
    from the same event loop that runs the service.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self._service = service
        self._host = host
        self._requested_port = int(port)
        self._server: asyncio.base_events.Server | None = None
        #: Each open connection's handler task -> its writer while it
        #: reads a request, None while it answers one.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter | None] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "VoiceHttpServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("HTTP server already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._requested_port
        )

    async def stop(self) -> None:
        """Stop accepting connections, then close every open one.

        A connection waiting for (or reading) a request is closed at
        once; one answering a request is closed after its response.
        Returns when every connection handler has finished, so none
        still holds the service.  The service keeps running (the caller
        owns its lifecycle).
        """
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        for writer in self._connections.values():
            if writer is not None:
                writer.close()
        await asyncio.gather(*self._connections, return_exceptions=True)
        # Last: from Python 3.12.1 on this also waits for every accepted
        # connection to drop, so it would block on an idle one still open.
        await server.wait_closed()

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._server is not None

    @property
    def host(self) -> str:
        """The configured bind host."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral port 0 once started)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    @property
    def address(self) -> str:
        """The server's base URL."""
        return f"http://{self._host}:{self.port}"

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        try:
            # A handler that first runs after stop() exits at once.
            while self._server is not None:
                self._connections[task] = writer
                start, headers = await http1.read_head(reader)
                if len(start) < 2:
                    break  # not a request line
                try:
                    length = http1.content_length(headers)
                    error = _TOO_LARGE if length > MAX_BODY_BYTES else None
                except http1.FramingError:
                    error = _BAD_LENGTH
                if error is not None:
                    # Close after answering: the stream position is no
                    # longer trustworthy.
                    await self._respond(writer, *error, keep_alive=False)
                    break
                body = await reader.readexactly(length) if length else b""
                self._connections[task] = None
                path = start[1].split("?", 1)[0]  # the /v1 contract ignores queries
                status, payload = await self._dispatch(start[0].upper(), path, body)
                if faults.FAILPOINTS.fires(faults.HTTP_DROP):
                    # The http.drop failpoint: hang up without writing
                    # the response, like a crashed proxy would.
                    break
                keep_alive = (
                    self._server is not None  # a stopping server closes after answering
                    and headers.get("connection", "keep-alive").lower() != "close"
                )
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass  # the client left, or sent an unframeable head (FramingError)
        finally:
            self._connections.pop(task, None)
            writer.close()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        route = _SESSION_ROUTE if path.startswith("/v1/sessions/") else path
        allowed = _ROUTE_METHODS.get(route)
        if allowed is None:
            return 404, {"code": "not_found", "error": f"no route for {path}"}
        if method != allowed:
            return 405, {"code": "method_not_allowed", "error": f"use {allowed} for {route}"}
        if path == "/v1/ask":
            return await self._handle_ask(body)
        if path == "/v1/append":
            return self._handle_append(body)
        if path == "/v1/metrics":
            return 200, self._metrics_payload()
        if path == "/v1/store/digest":
            return 200, self._service.store_digest()
        if route == _SESSION_ROUTE:
            session_id = unquote(path[len("/v1/sessions/"):])
            summary = self._service.sessions.describe(session_id)
            if summary is None:
                return 404, {"code": "unknown_session", "error": f"unknown session {session_id!r}"}
            return 200, summary
        health = self._service.health()  # the one route left: /healthz
        health["snapshot_version"] = self._service.registry.version
        # Degraded still answers requests — probes must keep routing
        # traffic here (200), just with the reasons on display.
        status = 200 if health["status"] in ("ok", "degraded") else 503
        return status, health

    async def _handle_ask(self, body: bytes) -> tuple[int, dict[str, Any]]:
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            return 400, {"code": "bad_json", "error": f"request body is not valid JSON: {exc}"}
        try:
            request = VoiceRequest.from_dict(payload)
        except EnvelopeError as exc:
            return 400, {"code": "bad_envelope", "error": str(exc)}
        try:
            response = await self._service.submit(request)
        except ServiceOverloadedError as exc:
            return 503, {"code": "overloaded", "error": str(exc)}
        except RuntimeError as exc:
            # "service is not running": shutting down under the client.
            return 503, {"code": "draining", "error": str(exc)}
        except Exception:
            # Engine bug — answer, don't kill the socket.  The repr
            # goes to the server log; clients get a stable code, not
            # internals that leak paths or table contents.
            logger.exception("unhandled error answering /v1/ask")
            return 500, {"code": "internal_error", "error": "internal server error"}
        try:
            return 200, response_to_dict(response, request_id=request.request_id)
        except EnvelopeError:
            # A response that violates its own wire contract is a server
            # bug; report it as one instead of dropping the connection.
            logger.exception("response envelope encoding failed for /v1/ask")
            return 500, {"code": "encode_failed", "error": "response encoding failed"}

    def _handle_append(self, body: bytes) -> tuple[int, dict[str, Any]]:
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            return 400, {"code": "bad_json", "error": f"request body is not valid JSON: {exc}"}
        rows = payload.get("rows") if isinstance(payload, dict) else None
        if not isinstance(rows, list) or not rows:
            return 400, {
                "code": "bad_append",
                "error": 'append body must be {"rows": [...]} with at least one row',
            }
        try:
            table = self._service.build_append_table(rows)
        except EnvelopeError as exc:
            return 400, {"code": "bad_append", "error": str(exc)}
        try:
            seq = self._service.request_append(table)
        except MaintenanceUnavailableError as exc:
            return 503, {"code": "maintenance_unavailable", "error": str(exc)}
        except faults.InjectedFault:
            # A raising journal failpoint is a stand-in for a real
            # journal-write failure; report it as one, not as draining
            # (InjectedFault subclasses RuntimeError).
            logger.exception("unhandled error accepting /v1/append")
            return 500, {"code": "internal_error", "error": "internal server error"}
        except RuntimeError as exc:
            return 503, {"code": "draining", "error": str(exc)}
        except Exception:
            # Journal-write failures land here: the batch was NOT
            # accepted (nothing persisted, nothing queued), which the
            # 500 tells the client truthfully.
            logger.exception("unhandled error accepting /v1/append")
            return 500, {"code": "internal_error", "error": "internal server error"}
        return 202, {"accepted_rows": table.num_rows, "journal_seq": seq}

    def _metrics_payload(self) -> dict[str, Any]:
        summary = self._service.metrics_summary()
        summary["snapshot_version"] = self._service.registry.version
        summary["sessions"] = len(self._service.sessions)
        summary["queue_depth"] = self._service.queue_depth
        return summary

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------
    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        keep_alive: bool,
    ) -> None:
        try:
            body = http1.encode_json(payload).encode("utf-8")
        except (TypeError, ValueError) as exc:
            # A payload json can't encode (non-finite metric, stray
            # object) must still answer — a raised ValueError here would
            # be swallowed by the framing-error catch and silently drop
            # the connection.
            status = 500
            body = http1.encode_json(
                {"code": "encode_failed", "error": f"response serialization failed: {exc}"}
            ).encode("utf-8")
        headers: dict[str, object] = {"Connection": "keep-alive" if keep_alive else "close"}
        if status == 503:
            headers["Retry-After"] = RETRY_AFTER_SECONDS
        writer.write(http1.encode_response(status, headers, body))
        await writer.drain()
