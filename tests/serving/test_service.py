"""Unit tests for the asyncio voice-serving service."""

from __future__ import annotations

import asyncio

import pytest

from repro.api import ServiceOverloadedError
from repro.serving import VoiceService
from repro.system.engine import ResponseKind

from tests.serving.conftest import append_table

QUESTIONS = [
    "what is the delay in Winter",
    "delays for East",
    "delays for East in Winter",
    "what is the average delay",
    "help",
    "which region has the highest delay",
    "play some music",
]


class TestRequestPath:
    def test_responses_match_quiesced_engine(self, engine):
        expected = {text: engine.respond(text).text for text in QUESTIONS}

        async def run():
            async with VoiceService(engine, concurrency=4) as service:
                responses = await asyncio.gather(
                    *(service.submit(text) for text in QUESTIONS)
                )
            return responses

        responses = asyncio.run(run())
        for text, response in zip(QUESTIONS, responses):
            assert response.text == expected[text]

    def test_latency_and_kind_recorded(self, engine):
        async def run():
            async with VoiceService(engine, concurrency=2) as service:
                response = await service.submit("what is the delay in Winter")
            return response

        response = asyncio.run(run())
        assert response.kind is ResponseKind.SPEECH
        assert response.exact_match
        assert response.latency_seconds > 0.0

    def test_submit_when_not_running_raises(self, engine):
        async def run():
            service = VoiceService(engine)
            with pytest.raises(RuntimeError):
                await service.submit("help")
            await service.start()
            await service.stop()
            with pytest.raises(RuntimeError):
                await service.submit("help")

        asyncio.run(run())

    def test_inline_vs_offload_split(self, engine):
        async def run():
            async with VoiceService(engine, concurrency=2) as service:
                await service.submit("what is the delay in Winter")  # exact hit
                await service.submit("help")  # canned text
                await service.submit("delays for East in Winter")  # subset match
                return service.metrics.summary()

        summary = asyncio.run(run())
        assert summary["inline"] == 2
        assert summary["offloaded"] == 1
        assert summary["completed"] == 3


class TestAdmissionControl:
    def test_queue_depth_backpressure(self, engine):
        async def run():
            service = VoiceService(engine, concurrency=1, max_queue_depth=1)
            gate = asyncio.Event()
            inner_answer = service._answer

            async def gated_answer(text):
                await gate.wait()
                return await inner_answer(text)

            service._answer = gated_answer
            await service.start()
            first = asyncio.ensure_future(service.submit("help"))
            await asyncio.sleep(0.01)  # worker picks request 1 up, then blocks
            second = asyncio.ensure_future(service.submit("help"))
            await asyncio.sleep(0.01)  # request 2 now waits in the queue
            with pytest.raises(ServiceOverloadedError):
                await service.submit("help")
            assert service.metrics.rejected == 1
            gate.set()
            responses = await asyncio.gather(first, second)
            await service.stop()
            return responses

        responses = asyncio.run(run())
        assert all(r.kind is ResponseKind.HELP for r in responses)

    def test_invalid_parameters_rejected(self, engine):
        with pytest.raises(ValueError):
            VoiceService(engine, concurrency=0)
        with pytest.raises(ValueError):
            VoiceService(engine, max_queue_depth=-1)


class TestLifecycle:
    def test_stop_adopts_final_snapshot_and_table(self, engine, append_batches):
        rows_before = engine.table.num_rows

        async def run():
            service = VoiceService(engine, concurrency=2)
            await service.start()
            service.request_append(append_batches[0])
            await service.scheduler.quiesce()
            await service.stop()
            return service

        service = asyncio.run(run())
        assert service.registry.version == 1
        assert engine.store is service.registry.current.store
        # The engine's table advanced with the appends, matching the
        # store it adopted (a second service would continue from here).
        assert engine.table.num_rows == rows_before + append_batches[0].num_rows
        # A quiesced engine now answers with the maintained speech.
        response = engine.ask("delays for East in Winter")
        assert response.kind is ResponseKind.SPEECH
        assert response.exact_match

    def test_new_dimension_value_parseable_after_swap(self, engine):
        new_rows = append_table(
            [("Midwest", "Winter", 99.0), ("Midwest", "Summer", 98.0)]
        )

        async def run():
            async with VoiceService(engine, concurrency=2) as service:
                before = await service.submit("delays for Midwest")
                service.request_append(new_rows)
                await service.scheduler.quiesce()
                after = await service.submit("delays for Midwest")
            return before, after

        before, after = asyncio.run(run())
        # Before the append, "Midwest" is not in the value lexicon: the
        # query parses without predicates and falls to the overall speech.
        assert before.query is not None
        assert before.query.length == 0
        # After the swap the engine re-derived its parser, so the value
        # extracts and the maintained snapshot answers its exact speech.
        assert after.query.predicate_map == {"region": "Midwest"}
        assert after.kind is ResponseKind.SPEECH
        assert after.exact_match
        assert "Midwest" in after.text

    def test_stop_is_idempotent_and_drains_queue(self, engine):
        async def run():
            service = VoiceService(engine, concurrency=1)
            await service.start()
            pending = [
                asyncio.ensure_future(service.submit("what is the delay in Winter"))
                for _ in range(5)
            ]
            await asyncio.sleep(0)  # let submissions enqueue
            await service.stop()
            await service.stop()  # idempotent
            return await asyncio.gather(*pending)

        responses = asyncio.run(run())
        assert len(responses) == 5
        assert all(r.kind is ResponseKind.SPEECH for r in responses)

    def test_double_start_rejected(self, engine):
        async def run():
            service = VoiceService(engine)
            await service.start()
            try:
                with pytest.raises(RuntimeError):
                    await service.start()
            finally:
                await service.stop()

        asyncio.run(run())


class TestMetrics:
    def test_summary_counts_and_percentiles(self, engine):
        async def run():
            async with VoiceService(engine, concurrency=4) as service:
                await asyncio.gather(*(service.submit(t) for t in QUESTIONS))
                return service.metrics.summary()

        summary = asyncio.run(run())
        assert summary["completed"] == len(QUESTIONS)
        assert summary["errors"] == 0
        assert summary["exact_hits"] >= 2
        assert summary["hit_rate"] == 1.0
        assert 0.0 < summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
        assert summary["qps"] > 0.0
        assert summary["responses_by_kind"]["speech"] >= 3

    def test_reset_zeroes_counters(self, engine):
        async def run():
            async with VoiceService(engine, concurrency=2) as service:
                await service.submit("help")
                service.metrics.reset()
                return service.metrics.summary()

        summary = asyncio.run(run())
        assert summary["completed"] == 0
        assert summary["p99_ms"] == 0.0


class TestServingConfigConstruction:
    def test_positional_non_config_second_argument_fails_loudly(self, engine):
        with pytest.raises(TypeError, match="ServingConfig"):
            VoiceService(engine, 8)
