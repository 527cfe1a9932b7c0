"""Typed request/response envelopes: the versioned wire contract.

Every request enters the system as a :class:`VoiceRequest` and every
answer leaves it as a :class:`repro.system.engine.VoiceResponse`
encoded by :func:`response_to_dict`.  Both sides of the wire carry
``schema_version`` so transports and stored payloads can detect a
contract they do not understand instead of mis-parsing it.

The encoding is **lossless**: decoding an encoded response yields an
equal :class:`VoiceResponse`, including

* the :class:`ResponseKind` / :class:`RequestType` enums (encoded by
  value, decoded back to the enum members);
* the optional :class:`repro.system.queries.DataQuery` with its
  predicate values' exact runtime types (``bool`` vs ``int`` vs
  ``float`` vs ``str`` survive JSON natively; predicate tuples are
  rebuilt from the JSON lists);
* floats bit-for-bit — JSON's ``repr``-based float text round-trips
  every finite double, signed zero included.

Non-finite floats (NaN, +/-inf) are *rejected* at encode time with
:class:`EnvelopeError`: Python's ``json`` would emit them as the
non-standard tokens ``NaN``/``Infinity`` that other parsers refuse, so
the guarantee "every encoded envelope is valid JSON" requires keeping
them out.  No code path produces them today; the check keeps that true.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.relational.errors import SchemaError, TypeMismatchError
from repro.relational.table import Table
from repro.system.classification import RequestType
from repro.system.engine import ResponseKind, VoiceResponse
from repro.system.queries import DataQuery

#: Version tag carried by every envelope.  Bump when the wire shape
#: changes incompatibly; decoders reject versions they do not know.
SCHEMA_VERSION = 1


class EnvelopeError(ValueError):
    """A payload violates the envelope contract (shape, types, version)."""


def _check_version(payload: Mapping[str, Any], what: str) -> None:
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise EnvelopeError(
            f"{what}: unsupported schema_version {version!r} "
            f"(this build speaks {SCHEMA_VERSION})"
        )


def _check_json_scalar(value: Any, where: str) -> Any:
    """Validate one scalar leaving the system is losslessly JSON-able."""
    if isinstance(value, float) and not math.isfinite(value):
        raise EnvelopeError(f"{where}: non-finite float {value!r} is not valid JSON")
    if value is not None and not isinstance(value, (str, int, float, bool)):
        raise EnvelopeError(f"{where}: {type(value).__name__} is not a JSON scalar")
    return value


@dataclass(frozen=True)
class VoiceRequest:
    """One voice request as it crosses the public API.

    Attributes
    ----------
    text:
        The transcript to answer.
    session_id:
        Optional conversation id.  Requests sharing a ``session_id``
        share repeat-state and a session log (see
        :class:`repro.api.sessions.SessionStore`); requests without one
        are answered statelessly.
    request_id:
        Optional caller-chosen id echoed back in the HTTP response,
        letting a client correlate answers on a multiplexed transport.
    deadline_ms:
        Optional per-request latency budget in milliseconds, measured
        from submission.  A request that cannot be answered within it
        gets a ``timeout``-kind response instead of queueing
        indefinitely (see the service's graceful-degradation contract).
        ``None`` defers to the deployment's default deadline, if any.
        Optional fields decode as absent on old payloads, so the schema
        version is unchanged.
    """

    text: str
    session_id: str | None = None
    request_id: str | None = None
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise EnvelopeError(f"request text must be a string, got {type(self.text).__name__}")
        for name in ("session_id", "request_id"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise EnvelopeError(f"request {name} must be a string or null")
        if self.deadline_ms is not None:
            if (
                isinstance(self.deadline_ms, bool)
                or not isinstance(self.deadline_ms, (int, float))
                or not math.isfinite(self.deadline_ms)
                or self.deadline_ms <= 0
            ):
                raise EnvelopeError(
                    "request deadline_ms must be a positive finite number or null"
                )

    def to_dict(self) -> dict[str, Any]:
        """The request as a JSON-ready dict (schema-versioned)."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "text": self.text,
            "session_id": self.session_id,
            "request_id": self.request_id,
        }
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "VoiceRequest":
        """Decode a request envelope, validating shape and version."""
        if not isinstance(payload, Mapping):
            raise EnvelopeError(f"request envelope must be an object, got {type(payload).__name__}")
        _check_version(payload, "request")
        if "text" not in payload:
            raise EnvelopeError("request envelope is missing 'text'")
        return VoiceRequest(
            text=payload["text"],
            session_id=payload.get("session_id"),
            request_id=payload.get("request_id"),
            deadline_ms=payload.get("deadline_ms"),
        )


def query_to_dict(query: DataQuery) -> dict[str, Any]:
    """Encode a data query (target + equality predicates)."""
    return {
        "target": query.target,
        "predicates": [
            [column, _check_json_scalar(value, f"query predicate {column!r}")]
            for column, value in query.predicates
        ],
    }


def query_from_dict(payload: Mapping[str, Any]) -> DataQuery:
    """Decode a data query; predicate value types survive as-is."""
    try:
        predicates = tuple(
            (column, value) for column, value in payload["predicates"]
        )
        return DataQuery(target=payload["target"], predicates=predicates)
    except (KeyError, TypeError, ValueError) as exc:
        raise EnvelopeError(f"malformed query payload: {exc!r}") from exc


def response_to_dict(
    response: VoiceResponse, request_id: str | None = None
) -> dict[str, Any]:
    """Encode one engine response as a JSON-ready envelope.

    ``request_id`` (when the caller supplied one) is echoed so clients
    can correlate responses.  Raises :class:`EnvelopeError` for values
    that would not survive JSON (non-finite floats).
    """
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": response.kind.value,
        "text": response.text,
        "request_type": response.request_type.value,
        "query": query_to_dict(response.query) if response.query is not None else None,
        "exact_match": bool(response.exact_match),
        "latency_seconds": _check_json_scalar(
            float(response.latency_seconds), "latency_seconds"
        ),
    }
    if request_id is not None:
        payload["request_id"] = request_id
    return payload


def response_from_dict(payload: Mapping[str, Any]) -> VoiceResponse:
    """Decode a response envelope back into an equal :class:`VoiceResponse`."""
    if not isinstance(payload, Mapping):
        raise EnvelopeError(
            f"response envelope must be an object, got {type(payload).__name__}"
        )
    _check_version(payload, "response")
    try:
        kind = ResponseKind(payload["kind"])
        request_type = RequestType(payload["request_type"])
        query_payload = payload.get("query")
        return VoiceResponse(
            kind=kind,
            text=payload["text"],
            request_type=request_type,
            query=query_from_dict(query_payload) if query_payload is not None else None,
            exact_match=bool(payload.get("exact_match", False)),
            latency_seconds=float(payload.get("latency_seconds", 0.0)),
        )
    except EnvelopeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise EnvelopeError(f"malformed response envelope: {exc!r}") from exc


def build_append_table(schema: Table, rows: list) -> Table:
    """Build an append batch from JSON-friendly rows (wire ingress).

    ``rows`` is a list of objects keyed by column name (extra keys
    ignored) or arrays in schema order, validated against ``schema``'s
    columns.  Raises :class:`EnvelopeError` on any mismatch, so
    transports can map it to a 400 instead of a maintenance crash.
    """
    names = schema.column_names
    types = [column.ctype for column in schema.columns]
    materialized = []
    for row in rows:
        if isinstance(row, dict):
            missing = [name for name in names if name not in row]
            if missing:
                raise EnvelopeError(f"append row is missing columns {missing}")
            materialized.append([row[name] for name in names])
        elif isinstance(row, (list, tuple)):
            materialized.append(list(row))
        else:
            raise EnvelopeError(
                f"append row must be an object or array, got {type(row).__name__}"
            )
    try:
        return Table.from_rows(schema.name, names, types, materialized)
    except (SchemaError, TypeMismatchError) as exc:
        raise EnvelopeError(f"append rows do not match the table schema: {exc}") from exc
