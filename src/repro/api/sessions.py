"""Bounded per-session state for the serving path.

The interactive engine keeps one
:class:`repro.system.engine.SessionState` for its single caller; a
service answering millions of users needs one *per conversation*,
bounded so abandoned sessions cannot grow memory forever.
:class:`SessionStore` is that container: an LRU mapping ``session_id ->
SessionState`` with O(1) lookup, record and eviction.  A session holds
only what the serving path reads: its last answer (the repeat-state)
and its exchange count — no per-session history.

Design notes
------------
* The stored value is the engine's own ``SessionState`` and responses
  are recorded through its ``observe`` — the exact code path
  :meth:`VoiceQueryEngine.ask` uses — so a REPEAT answered via the
  service replays byte-identical text to an interactive replay of the
  same history.
* All operations take a plain ``threading.Lock`` for a handful of dict
  operations.  The serving fast path holds it for sub-microsecond
  critical sections, and only for requests that carry a ``session_id``
  at all; session-less traffic never touches the store.
* Evicting a session drops its repeat-state: a later request with the
  evicted id is treated like a brand-new session (degrades to the
  stateless answer, never an error).
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.api.config import DEFAULT_SESSION_CAPACITY
from repro.api.envelopes import SCHEMA_VERSION, response_to_dict
from repro.system.engine import SessionState, VoiceResponse
from repro.system.nlq import ParsedRequest


class SessionStore:
    """A bounded LRU of per-session repeat-state and exchange counts.

    Parameters
    ----------
    capacity:
        Maximum live sessions; the least-recently-*used* session is
        evicted when a new one would exceed it.  Every :meth:`get` /
        :meth:`record` touch refreshes recency.
    clock:
        Timestamp source (override in tests); defaults to
        :func:`time.time`.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SESSION_CAPACITY,
        clock=time.time,
    ):
        if capacity < 1:
            raise ValueError(f"session capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._clock = clock
        self._lock = threading.Lock()
        # dicts preserve insertion order; recency = re-insertion order.
        self._sessions: dict[str, SessionState] = {}
        self._created_at: dict[str, float] = {}
        self._last_used_at: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum live sessions before LRU eviction."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions

    # ------------------------------------------------------------------
    # Request-path operations
    # ------------------------------------------------------------------
    def last_response(self, session_id: str) -> VoiceResponse | None:
        """The session's repeat-state (None for unknown/evicted ids).

        Touches recency, so a session kept alive purely by "repeat"
        requests is not evicted under ones that also ask new questions.
        """
        with self._lock:
            state = self._touch(session_id)
            return state.last_response if state is not None else None

    def record(
        self, session_id: str, parsed: ParsedRequest, response: VoiceResponse
    ) -> SessionState:
        """Record one handled exchange, creating the session if needed.

        Recording is exactly :meth:`SessionState.observe` — the
        interactive engine's own bookkeeping — under the store lock.
        """
        with self._lock:
            state = self._touch(session_id)
            if state is None:
                state = self._create(session_id)
            state.observe(parsed, response)
            return state

    # ------------------------------------------------------------------
    # Introspection for the HTTP front-end
    # ------------------------------------------------------------------
    def describe(self, session_id: str) -> dict[str, Any] | None:
        """A JSON-ready summary of one session (None when unknown).

        Read-only: does *not* touch recency, so monitoring a session
        does not keep it alive.
        """
        with self._lock:
            state = self._sessions.get(session_id)
            if state is None:
                return None
            return {
                "schema_version": SCHEMA_VERSION,
                "session_id": session_id,
                "requests": state.handled,
                "created_at": self._created_at[session_id],
                "last_used_at": self._last_used_at[session_id],
                "last_response": (
                    response_to_dict(state.last_response)
                    if state.last_response is not None
                    else None
                ),
            }

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------
    def _touch(self, session_id: str) -> SessionState | None:
        state = self._sessions.pop(session_id, None)
        if state is None:
            return None
        self._sessions[session_id] = state  # re-insert = most recent
        self._last_used_at[session_id] = self._clock()
        return state

    def _create(self, session_id: str) -> SessionState:
        while len(self._sessions) >= self._capacity:
            oldest = next(iter(self._sessions))
            del self._sessions[oldest]
            del self._created_at[oldest]
            del self._last_used_at[oldest]
        state = SessionState()
        now = self._clock()
        self._sessions[session_id] = state
        self._created_at[session_id] = now
        self._last_used_at[session_id] = now
        return state
