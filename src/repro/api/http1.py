"""HTTP/1.1 message framing for the server and the client.

:class:`repro.api.http_server.VoiceHttpServer` and
:class:`repro.api.clients.HttpClient` frame every message here: :func:`read_head`
parses a head read with one ``readuntil``, :func:`content_length` is
the one Content-Length rule (RFC 9112 §6.3), and :func:`encode_request`
/ :func:`encode_response` build a whole message as one ``bytes`` for
one ``writer.write``.  Every body this API sends is JSON, encoded by
:data:`encode_json`.
"""

from __future__ import annotations

import asyncio
import json
from http import HTTPStatus

_REASONS = {status.value: status.phrase for status in HTTPStatus}

#: ``json.dumps(obj, allow_nan=False)`` with one shared encoder: the
#: same text, without building a ``JSONEncoder`` for every message.
encode_json = json.JSONEncoder(allow_nan=False).encode


class FramingError(ValueError):
    """Bytes that do not frame as an HTTP/1.1 message."""


async def read_head(reader: asyncio.StreamReader) -> tuple[list[str], dict[str, str]]:
    """One message head: its start line's fields and its headers.

    The start line splits on whitespace into at most three fields
    (method, target, version; or version, status, reason).  Header
    names are lower-cased and values stripped; a repeated header's
    values are comma-joined (RFC 9110 §5.3), so conflicts stay visible.

    Raises :class:`asyncio.IncompleteReadError` when the peer closes
    mid-head or between messages, and :class:`FramingError` when the
    head outgrows the reader's buffer limit (64 KiB by default) or a
    header line has no colon, an empty name, or whitespace in or around
    its name, which covers an obs-fold continuation line (RFC 9112 §5.1,
    §5.2).
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError as exc:
        raise FramingError("message head exceeds the stream buffer limit") from exc
    start, *lines = raw[:-4].decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon or name.split() != [name]:
            raise FramingError(f"malformed header line {line!r}")
        name, value = name.lower(), value.strip()
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    return start.split(None, 2), headers


def content_length(headers: dict[str, str]) -> int:
    """The body length a head declares; 0 without a Content-Length.

    Every value must be the same run of ASCII digits, so ``+5``,
    ``1_0``, ``-5`` and two different lengths all raise
    :class:`FramingError` instead of framing a guessed body.
    """
    value = headers.get("content-length")
    if value is None:
        return 0
    lengths = {item.strip() for item in value.split(",")}
    length = lengths.pop()
    if lengths or not (length.isascii() and length.isdigit()):
        raise FramingError(f"malformed Content-Length {value!r}")
    return int(length)


def encode_request(method: str, target: str, host: str, body: bytes) -> bytes:
    """A whole request message."""
    return _encode(f"{method} {target} HTTP/1.1", {"Host": host}, body)


def encode_response(status: int, headers: dict[str, object], body: bytes) -> bytes:
    """A whole response message; ``headers`` go after the framing ones."""
    return _encode(f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}", headers, body)


def _encode(start_line: str, headers: dict[str, object], body: bytes) -> bytes:
    fields = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    head = (
        f"{start_line}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{fields}\r\n"
    )
    return head.encode("ascii") + body
