"""Request deadlines, graceful degradation and health at the service layer.

The acceptance bar for deadlines: with the ``serve.offload_slow``
failpoint pushing every offloaded answer past the budget, every
affected request comes back as a ``timeout``-kind response *within*
the deadline plus one scheduling quantum — the caller is never parked
behind work nobody is waiting for anymore.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import ServingConfig, VoiceRequest
from repro.api.envelopes import EnvelopeError
from repro.api.errors import MaintenanceUnavailableError
from repro.reliability import FAILPOINTS
from repro.reliability.faults import InjectedFault
from repro.serving import VoiceService
from repro.serving import scheduler as scheduler_module
from repro.system.engine import ResponseKind

#: An advanced comparison: it aggregates over the table, so the
#: service answers it on the executor (every store answer is inline).
OFFLOAD_QUESTION = "compare the delay between Winter and Summer"

#: Allowance past the deadline for the event loop to schedule the
#: timed-out response ("one scheduling quantum", generously).
QUANTUM_SECONDS = 0.25


class TestDeadlines:
    def test_slow_offloads_time_out_within_the_deadline(self, advanced_engine):
        deadline_ms = 150.0
        config = ServingConfig(concurrency=2, default_deadline_ms=deadline_ms)

        async def run():
            with FAILPOINTS.active(["serve.offload_slow:sleep=0.6,times=0"]):
                async with VoiceService(advanced_engine, config) as service:
                    responses = await asyncio.gather(
                        *(service.submit(VoiceRequest(text=OFFLOAD_QUESTION)) for _ in range(4))
                    )
                    return responses, service.metrics_summary()

        responses, summary = asyncio.run(run())
        for response in responses:
            assert response.kind is ResponseKind.TIMEOUT
            # Answered within deadline + one quantum, far before the
            # 0.6 s the offload would have taken.
            assert response.latency_seconds <= deadline_ms / 1000.0 + QUANTUM_SECONDS
        assert summary["timeouts"] == 4
        assert summary["reliability"]["timeouts"] == 4

    def test_request_deadline_overrides_the_default(self, advanced_engine):
        config = ServingConfig(concurrency=2, default_deadline_ms=50.0)

        async def run():
            with FAILPOINTS.active(["serve.offload_slow:sleep=0.2,times=0"]):
                async with VoiceService(advanced_engine, config) as service:
                    generous = await service.submit(
                        VoiceRequest(text=OFFLOAD_QUESTION, deadline_ms=10_000.0)
                    )
                    default = await service.submit(VoiceRequest(text=OFFLOAD_QUESTION))
                    return generous, default

        generous, default = asyncio.run(run())
        assert generous.kind is ResponseKind.COMPARISON  # its own budget sufficed
        assert default.kind is ResponseKind.TIMEOUT  # the 50 ms default did not

    def test_timed_out_request_records_no_session_state(self, advanced_engine):
        config = ServingConfig(concurrency=2, default_deadline_ms=100.0)

        async def run():
            with FAILPOINTS.active(["serve.offload_slow:sleep=0.5,times=0"]):
                async with VoiceService(advanced_engine, config) as service:
                    timed_out = await service.submit(
                        VoiceRequest(text=OFFLOAD_QUESTION, session_id="s")
                    )
                    live_sessions = len(service.sessions)
                    # "repeat" is inline (never offloaded): it answers
                    # within any deadline and must not find an answer
                    # the caller never heard.
                    replay = await service.submit(
                        VoiceRequest(text="repeat", session_id="s")
                    )
                    return timed_out, live_sessions, replay

        timed_out, live_sessions, replay = asyncio.run(run())
        assert timed_out.kind is ResponseKind.TIMEOUT
        assert live_sessions == 0
        assert replay.text == advanced_engine.respond("repeat").text  # stateless fallback

    def test_offload_raise_failpoint_surfaces_as_request_error(self, advanced_engine):
        async def run():
            with FAILPOINTS.active(["serve.offload_raise:times=1"]):
                async with VoiceService(advanced_engine, ServingConfig(concurrency=2)) as service:
                    with pytest.raises(InjectedFault):
                        await service.submit(VoiceRequest(text=OFFLOAD_QUESTION))
                    recovered = await service.submit(VoiceRequest(text=OFFLOAD_QUESTION))
                    return recovered, service.metrics_summary()

        recovered, summary = asyncio.run(run())
        assert recovered.kind is ResponseKind.COMPARISON
        assert summary["errors"] == 1
        assert summary["completed"] == 1

    @pytest.mark.parametrize("bad", [0, -5.0, float("nan"), float("inf"), True, "1s"])
    def test_invalid_deadlines_rejected_at_the_envelope(self, bad):
        with pytest.raises(EnvelopeError, match="deadline_ms"):
            VoiceRequest(text="hello", deadline_ms=bad)

    def test_deadline_round_trips_through_the_envelope(self):
        request = VoiceRequest(text="hello", deadline_ms=250.0)
        decoded = VoiceRequest.from_dict(request.to_dict())
        assert decoded.deadline_ms == 250.0
        # Absent on the wire (and for old payloads) decodes as None.
        assert VoiceRequest.from_dict(VoiceRequest(text="hi").to_dict()).deadline_ms is None


class TestHealth:
    def test_ok_then_draining(self, engine):
        async def run():
            service = VoiceService(engine, ServingConfig(concurrency=2))
            await service.start()
            healthy = service.health()
            await service.stop()
            return healthy, service.health()

        healthy, stopped = asyncio.run(run())
        assert healthy == {"status": "ok", "reasons": []}
        assert stopped["status"] == "draining"

    def test_open_breaker_degrades_health_and_rejects_appends(
        self, engine, append_batch, monkeypatch
    ):
        monkeypatch.setattr(scheduler_module, "RETRY_LIMIT", 0)
        monkeypatch.setattr(scheduler_module, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(scheduler_module, "BREAKER_COOLDOWN_SECONDS", 60.0)
        config = ServingConfig(concurrency=2)

        async def run():
            with FAILPOINTS.active(["maintain.raise:times=0"]):
                async with VoiceService(engine, config) as service:
                    service.request_append(append_batch)
                    await service.scheduler.quiesce()
                    health = service.health()
                    reliability = service.reliability()
                    with pytest.raises(MaintenanceUnavailableError):
                        service.request_append(append_batch)
                    # Degraded still answers requests.
                    response = await service.submit(VoiceRequest(text="help"))
                    return health, reliability, response

        health, reliability, response = asyncio.run(run())
        assert health["status"] == "degraded"
        assert any("breaker" in reason for reason in health["reasons"])
        assert any("dropped" in reason for reason in health["reasons"])
        assert reliability["breaker_state"] == "open"
        assert reliability["maintenance_dropped_rows"] == append_batch.num_rows
        assert response.kind is ResponseKind.HELP
