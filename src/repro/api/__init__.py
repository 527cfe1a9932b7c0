"""The system's public API: one typed surface for every request path.

Before this package, callers reached the reproduction through two
disjoint, in-process-only surfaces: the stateful single-caller
:meth:`repro.system.engine.VoiceQueryEngine.ask` and the stateless
:meth:`repro.serving.service.VoiceService.submit`.  ``repro.api`` is
the deliberate redesign that merges them into a single versioned
contract a network deployment can expose:

* :mod:`repro.api.envelopes` — the wire types.  A
  :class:`VoiceRequest` (``text`` + optional ``session_id`` /
  ``request_id``) and a lossless JSON encoding of the engine's
  :class:`repro.system.engine.VoiceResponse`, both tagged with
  ``schema_version`` so the contract can evolve.
* :mod:`repro.api.sessions` — :class:`SessionStore`, a bounded LRU of
  per-session repeat-state (the last answer and an exchange count)
  built on the engine's own :class:`repro.system.engine.SessionState`,
  so a "repeat" through the service replays exactly what the
  interactive engine would.
* :mod:`repro.api.config` — :class:`ServingConfig`, the one dataclass
  holding every serving knob (concurrency, queue depth, session
  capacity, HTTP bind address), consumed
  by :class:`repro.serving.service.VoiceService`, the CLI ``serve``
  command and the serving benchmark.
* :mod:`repro.api.clients` — the transport-agnostic
  :class:`VoiceClient` protocol with two implementations:
  :class:`InProcessClient` (wraps a :class:`VoiceService` in the same
  event loop) and :class:`HttpClient` (speaks HTTP/1.1 to a server,
  pooling keep-alive connections).
* :mod:`repro.api.http_server` — :class:`VoiceHttpServer`, a
  stdlib-asyncio HTTP front-end exposing ``POST /v1/ask``,
  ``GET /v1/metrics``, ``GET /healthz`` and ``GET /v1/sessions/<id>``.
* :mod:`repro.api.http1` — the HTTP/1.1 message framing both of them
  use.

Code that talks *to* the system should import from here; the engine and
serving internals stay free to evolve behind the envelope contract.
"""

from repro.api.clients import HttpClient, InProcessClient, VoiceClient
from repro.api.config import ServingConfig
from repro.api.envelopes import (
    SCHEMA_VERSION,
    EnvelopeError,
    VoiceRequest,
    response_from_dict,
    response_to_dict,
)
from repro.api.errors import ServiceOverloadedError, VoiceApiError
from repro.api.http_server import VoiceHttpServer
from repro.api.sessions import SessionStore

__all__ = [
    "SCHEMA_VERSION",
    "EnvelopeError",
    "HttpClient",
    "InProcessClient",
    "ServiceOverloadedError",
    "ServingConfig",
    "SessionStore",
    "VoiceApiError",
    "VoiceClient",
    "VoiceHttpServer",
    "VoiceRequest",
    "response_from_dict",
    "response_to_dict",
]
