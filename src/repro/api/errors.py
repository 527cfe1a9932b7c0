"""Error types shared by every transport of the public API.

Defined here — below both the serving layer and the transports — so the
:class:`repro.api.clients.HttpClient` can raise the *same* exception
types an :class:`repro.api.clients.InProcessClient` caller sees, and
callers can switch transports without changing their error handling.
"""

from __future__ import annotations


class VoiceApiError(RuntimeError):
    """A request failed at the API layer (transport, protocol, server).

    Attributes
    ----------
    status:
        The HTTP status code when the failure came over HTTP, else None.
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class TransportError(VoiceApiError, ConnectionError):
    """The request never got a well-formed HTTP reply.

    Raised when the connection is refused, reset or torn mid-response,
    or when the reply cannot be framed (garbled status line, bad
    ``Content-Length``).  Being a ``ConnectionError`` lets a caller
    treat it like any other dropped connection and retry elsewhere;
    HTTP error statuses and timeouts are *not* transport errors.
    """


class ServiceOverloadedError(VoiceApiError):
    """The service's admission control rejected the request.

    Raised by :meth:`repro.serving.service.VoiceService.submit` when
    ``max_queue_depth`` requests are already waiting, and by
    :class:`repro.api.clients.HttpClient` when the server answered 503
    — the same backpressure signal on every transport.
    """


class MaintenanceUnavailableError(VoiceApiError):
    """Appended rows were rejected because maintenance is unavailable.

    Raised by
    :meth:`repro.serving.scheduler.MaintenanceScheduler.request_append`
    while its circuit breaker is open: after
    :data:`repro.serving.scheduler.BREAKER_THRESHOLD` consecutive job failures the scheduler stops accepting new appends
    (each would join a payload that keeps failing) until a cooldown
    passes and a half-open probe succeeds.  Callers should surface the
    rejection to the writer rather than drop rows silently.
    """

    def __init__(self, message: str, status: int | None = 503):
        super().__init__(message, status=status)
