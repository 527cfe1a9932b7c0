"""SessionStore unit tests: LRU bounds, recency, engine-state parity."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api.sessions import SessionStore
from repro.system.classification import RequestType
from repro.system.engine import ResponseKind, SessionState, VoiceResponse
from repro.system.nlq import ParsedRequest, RequestKind


def parsed(text: str) -> ParsedRequest:
    return ParsedRequest(text=text, kind=RequestKind.QUERY)


def speech(text: str) -> VoiceResponse:
    return VoiceResponse(
        kind=ResponseKind.SPEECH, text=text, request_type=RequestType.SUPPORTED_QUERY
    )


def repeat(text: str) -> VoiceResponse:
    return VoiceResponse(
        kind=ResponseKind.REPEAT, text=text, request_type=RequestType.REPEAT
    )


class TestRecording:
    def test_record_creates_and_advances_state(self):
        store = SessionStore(capacity=4)
        store.record("s1", parsed("q1"), speech("a1"))
        store.record("s1", parsed("q2"), speech("a2"))
        assert store.last_response("s1").text == "a2"
        assert len(store) == 1

    def test_repeat_responses_do_not_advance_repeat_state(self):
        store = SessionStore(capacity=4)
        store.record("s1", parsed("q1"), speech("a1"))
        store.record("s1", parsed("repeat"), repeat("a1"))
        assert store.last_response("s1").text == "a1"
        assert store.last_response("s1").kind is ResponseKind.SPEECH

    def test_record_matches_engine_session_state_exactly(self):
        """The store must observe through the engine's own SessionState."""
        store = SessionStore(capacity=4)
        reference = SessionState()
        exchanges = [
            (parsed("q1"), speech("a1")),
            (parsed("repeat"), repeat("a1")),
            (parsed("q2"), speech("a2")),
        ]
        for request, response in exchanges:
            store.record("s", request, response)
            reference.observe(request, response)
        state = store.record("s", parsed("q3"), speech("a3"))
        reference.observe(parsed("q3"), speech("a3"))
        assert state == reference
        assert state.handled == reference.handled == 4
        assert state.last_response.text == "a3"

    def test_unknown_session_has_no_repeat_state(self):
        store = SessionStore(capacity=4)
        assert store.last_response("never-seen") is None


class TestEviction:
    def test_sessions_evict_at_the_lru_bound(self):
        store = SessionStore(capacity=2)
        store.record("a", parsed("q"), speech("ra"))
        store.record("b", parsed("q"), speech("rb"))
        store.record("c", parsed("q"), speech("rc"))  # evicts a
        assert len(store) == 2
        assert "a" not in store
        assert store.last_response("a") is None  # degraded, not an error
        assert store.last_response("b").text == "rb"
        assert store.last_response("c").text == "rc"

    def test_recency_touch_protects_active_sessions(self):
        store = SessionStore(capacity=2)
        store.record("a", parsed("q"), speech("ra"))
        store.record("b", parsed("q"), speech("rb"))
        # Touch "a" (a repeat-state read counts as activity) ...
        assert store.last_response("a").text == "ra"
        store.record("c", parsed("q"), speech("rc"))  # ... so "b" evicts
        assert "a" in store
        assert "b" not in store

    def test_evicted_session_restarts_cleanly(self):
        store = SessionStore(capacity=1)
        store.record("a", parsed("q"), speech("old"))
        store.record("b", parsed("q"), speech("rb"))
        store.record("a", parsed("q2"), speech("new"))
        assert store.last_response("a").text == "new"
        state = store.record("a", parsed("q3"), speech("n2"))
        assert state.handled == 2  # the count restarted at re-creation
        assert state.last_response.text == "n2"

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            SessionStore(capacity=0)


class TestLogBound:
    def test_session_keeps_its_last_answer_and_counts_every_exchange(self):
        store = SessionStore(capacity=2)
        for index in range(40):
            store.record("hot", parsed(f"q{index}"), speech(f"a{index}"))
        state = store.record("hot", parsed("q-last"), speech("a-last"))
        assert state.handled == 41
        assert state.last_response.text == "a-last"
        assert store.describe("hot")["requests"] == 41

    def test_many_exchanges_never_disturb_repeat_state(self):
        store = SessionStore(capacity=2)
        for index in range(10):
            store.record("s", parsed(f"q{index}"), speech(f"a{index}"))
        state = store.record("s", parsed("repeat"), repeat("a9"))
        assert store.last_response("s").text == "a9"
        assert state.handled == 11

    def test_recorded_exchanges_are_not_retained(self):
        class Sentinel:
            pass

        store = SessionStore(capacity=2)
        sentinels = []
        for index in range(1000):
            sentinel = Sentinel()
            sentinels.append(weakref.ref(sentinel))
            request = ParsedRequest(
                text=f"q{index}", kind=RequestKind.QUERY, matched_values={"v": sentinel}
            )
            store.record("s", request, speech(f"a{index}"))
            del sentinel, request
        gc.collect()
        assert [ref for ref in sentinels if ref() is not None] == []
        assert store.describe("s")["requests"] == 1000


class TestDescribe:
    def test_describe_summarizes_without_touching_recency(self):
        clock = iter(range(100)).__next__
        store = SessionStore(capacity=2, clock=lambda: float(clock()))
        store.record("a", parsed("q"), speech("ra"))
        store.record("b", parsed("q"), speech("rb"))
        summary = store.describe("a")
        assert summary["session_id"] == "a"
        assert summary["requests"] == 1
        assert summary["last_response"]["text"] == "ra"
        store.record("c", parsed("q"), speech("rc"))
        assert "a" not in store  # describe("a") did not refresh it

    def test_describe_unknown_session_is_none(self):
        assert SessionStore(capacity=2).describe("nope") is None
