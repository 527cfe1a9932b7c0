"""Unit tests for the asyncio voice-serving service."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.api import ServiceOverloadedError, ServingConfig, VoiceRequest
from repro.serving import VoiceService
from repro.serving import service as service_module
from repro.serving.service import ServiceMetrics
from repro.system.classification import RequestType
from repro.system.engine import ResponseKind, VoiceResponse
from repro.system.speech_store import SpeechStore

from tests.serving.conftest import append_table, gate_answers, make_config
from tests.serving.test_scheduler import GatedMaintainer


class CountingStore(SpeechStore):
    """Counts lookups: every ``exact_match`` or ``best_match`` call from
    outside the store (``best_match`` probes ``exact_match`` itself)."""

    lookups = 0
    _in_best_match = False

    def exact_match(self, query):
        if not self._in_best_match:
            self.lookups += 1
        return super().exact_match(query)

    def best_match(self, query):
        self.lookups += 1
        self._in_best_match = True
        try:
            return super().best_match(query)
        finally:
            self._in_best_match = False


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
            async with VoiceService(engine, ServingConfig(concurrency=4)) as service:
                responses = await asyncio.gather(
                    *(service.submit(VoiceRequest(text=text)) for text in QUESTIONS)
                )
            return responses

        responses = asyncio.run(run())
        for text, response in zip(QUESTIONS, responses):
            assert response.text == expected[text]

    def test_latency_and_kind_recorded(self, engine):
        async def run():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                response = await service.submit(VoiceRequest(text="what is the delay in Winter"))
            return response

        response = asyncio.run(run())
        assert response.kind is ResponseKind.SPEECH
        assert response.exact_match
        assert response.latency_seconds > 0.0

    def test_submit_when_not_running_raises(self, engine):
        async def run():
            service = VoiceService(engine)
            with pytest.raises(RuntimeError):
                await service.submit(VoiceRequest(text="help"))
            await service.start()
            await service.stop()
            with pytest.raises(RuntimeError):
                await service.submit(VoiceRequest(text="help"))

        asyncio.run(run())

    def test_inline_vs_offload_split(self, advanced_engine):
        async def run():
            config = ServingConfig(concurrency=2)
            async with VoiceService(advanced_engine, config) as service:
                await service.submit(VoiceRequest(text="what is the delay in Winter"))  # exact hit
                await service.submit(VoiceRequest(text="help"))  # canned text
                await service.submit(VoiceRequest(text="delays for East in Winter"))  # subset match
                # An advanced answer aggregates over the table: offloaded.
                await service.submit(
                    VoiceRequest(text="compare the delay between Winter and Summer")
                )
                return service.metrics.summary()

        summary = asyncio.run(run())
        assert summary["inline"] == 3
        assert summary["offloaded"] == 1
        assert summary["completed"] == 4
        assert summary["responses_by_kind"]["comparison"] == 1

    def test_sessionless_exact_hit_finishes_without_suspending(self, engine):
        async def run():
            async with VoiceService(engine, ServingConfig(concurrency=1)) as service:
                coro = service.submit(VoiceRequest(text="what is the delay in Winter"))
                # Answered on the caller's task: no queue hop to a worker,
                # so the first step runs the answer to completion.
                with pytest.raises(StopIteration) as finished:
                    coro.send(None)
                return finished.value.value, service.metrics.summary()

        response, summary = asyncio.run(run())
        assert response.kind is ResponseKind.SPEECH
        assert response.exact_match
        assert summary["completed"] == 1

    def test_each_store_answer_is_one_lookup(self, engine):
        store = CountingStore()
        for speech in engine.store:
            store.add(speech)
        engine.swap_store(store)

        async def run():
            lookups = []
            async with VoiceService(engine, ServingConfig(concurrency=1)) as service:
                for text in ("what is the delay in Winter", "delays for East in Winter"):
                    before = store.lookups
                    response = await service.submit(VoiceRequest(text=text))
                    lookups.append((response.kind, response.exact_match, store.lookups - before))
            return lookups

        assert asyncio.run(run()) == [
            (ResponseKind.SPEECH, True, 1),  # exact hit
            (ResponseKind.SPEECH, False, 1),  # subset match
        ]


class TestAdmissionControl:
    def test_queue_depth_backpressure(self, engine):
        async def run():
            service = VoiceService(engine, ServingConfig(concurrency=1, max_queue_depth=1))
            gate = gate_answers(service)
            await service.start()
            first = asyncio.ensure_future(service.submit(VoiceRequest(text="help")))
            await asyncio.sleep(0.01)  # request 1 takes the only slot, then blocks
            second = asyncio.ensure_future(service.submit(VoiceRequest(text="help")))
            await asyncio.sleep(0.01)  # request 2 now waits for the slot
            assert service.queue_depth == 1
            with pytest.raises(ServiceOverloadedError):
                await service.submit(VoiceRequest(text="help"))
            assert service.metrics.rejected == 1
            gate.set()
            responses = await asyncio.gather(first, second)
            await service.stop()
            return responses

        responses = asyncio.run(run())
        assert all(r.kind is ResponseKind.HELP for r in responses)

    def test_zero_queue_depth_answers_while_a_slot_is_free(self, engine):
        async def run():
            config = ServingConfig(concurrency=1, max_queue_depth=0)
            service = VoiceService(engine, config)
            gate = gate_answers(service)
            await service.start()
            first = asyncio.ensure_future(service.submit(VoiceRequest(text="help")))
            await asyncio.sleep(0.01)  # the only slot is taken: no waiting room
            with pytest.raises(ServiceOverloadedError):
                await service.submit(VoiceRequest(text="help"))
            gate.set()
            responses = [await first]
            # The slot is free again, so an idle service answers.
            responses.append(await service.submit(VoiceRequest(text="help")))
            await service.stop()
            return responses, service.metrics.rejected

        responses, rejected = asyncio.run(run())
        assert [r.kind for r in responses] == [ResponseKind.HELP, ResponseKind.HELP]
        assert rejected == 1

    def test_invalid_parameters_rejected(self, engine):
        with pytest.raises(ValueError):
            VoiceService(engine, ServingConfig(concurrency=0))
        with pytest.raises(ValueError):
            VoiceService(engine, ServingConfig(max_queue_depth=-1))


class TestLifecycle:
    def test_stop_adopts_final_snapshot_and_table(self, engine, append_batches):
        rows_before = engine.table.num_rows

        async def run():
            service = VoiceService(engine, ServingConfig(concurrency=2))
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

    def test_reads_finish_while_a_maintenance_pass_runs(self, engine, append_batches):
        """Maintenance runs off the event loop: with a pass held open, a
        read is answered from the snapshot before the append.  A pass on
        the loop would block the read until its gate timed out."""
        maintainer = GatedMaintainer(
            make_config(), engine.table, summarizer=engine.summarizer, realizer=engine.realizer
        )

        async def run():
            config = ServingConfig(concurrency=2)
            async with VoiceService(engine, config, maintainer=maintainer) as service:
                service.request_append(append_batches[0])
                assert await asyncio.to_thread(maintainer.started.wait, 10.0)
                response = await service.submit(VoiceRequest(text="what is the delay in Winter"))
                during = (service.registry.version, len(service.scheduler.jobs))
                maintainer.gate.set()
                await service.scheduler.quiesce()
            return response, during, [job.status for job in service.scheduler.jobs]

        response, during, statuses = asyncio.run(run())
        assert response.exact_match
        assert during == (0, 0)
        assert statuses == ["completed"]

    def test_new_dimension_value_parseable_after_swap(self, engine):
        new_rows = append_table(
            [("Midwest", "Winter", 99.0), ("Midwest", "Summer", 98.0)]
        )

        async def run():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                before = await service.submit(VoiceRequest(text="delays for Midwest"))
                service.request_append(new_rows)
                await service.scheduler.quiesce()
                after = await service.submit(VoiceRequest(text="delays for Midwest"))
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
            service = VoiceService(engine, ServingConfig(concurrency=1))
            await service.start()
            request = VoiceRequest(text="what is the delay in Winter")
            pending = [asyncio.ensure_future(service.submit(request)) for _ in range(5)]
            await asyncio.sleep(0)  # let the submissions start
            await service.stop()
            await service.stop()  # idempotent
            return await asyncio.gather(*pending)

        responses = asyncio.run(run())
        assert len(responses) == 5
        assert all(r.kind is ResponseKind.SPEECH for r in responses)

    def test_stop_answers_requests_waiting_beyond_concurrency(self, engine):
        async def run():
            service = VoiceService(engine, ServingConfig(concurrency=1, max_queue_depth=8))
            gate = gate_answers(service)
            await service.start()
            pending = [
                asyncio.ensure_future(service.submit(VoiceRequest(text="help")))
                for _ in range(4)
            ]
            await asyncio.sleep(0.01)  # one request in flight, three waiting
            depth = service.queue_depth
            stopping = asyncio.ensure_future(service.stop())
            await asyncio.sleep(0.01)
            stopped_early = stopping.done()
            with pytest.raises(RuntimeError):
                await service.submit(VoiceRequest(text="help"))  # refused while draining
            gate.set()
            await stopping
            return depth, stopped_early, await asyncio.gather(*pending)

        depth, stopped_early, responses = asyncio.run(run())
        assert depth == 3
        assert not stopped_early
        assert [r.kind for r in responses] == [ResponseKind.HELP] * 4

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
            async with VoiceService(engine, ServingConfig(concurrency=4)) as service:
                await asyncio.gather(*(service.submit(VoiceRequest(text=t)) for t in QUESTIONS))
                return service.metrics.summary()

        summary = asyncio.run(run())
        assert summary["completed"] == len(QUESTIONS)
        assert summary["errors"] == 0
        assert summary["exact_hits"] >= 2
        assert summary["hit_rate"] == 1.0
        assert 0.0 < summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
        assert summary["qps"] > 0.0
        assert summary["responses_by_kind"]["speech"] >= 3

    def test_latency_window_keeps_the_newest_samples(self, monkeypatch):
        window, extra = 50, 17
        monkeypatch.setattr(service_module, "LATENCY_WINDOW", window)
        response = VoiceResponse(
            kind=ResponseKind.HELP, text="help", request_type=RequestType.HELP
        )
        # Slow outliers first, so percentiles over every sample would
        # differ from those over the newest ``window``.
        rng = random.Random(7)
        samples = [1.0 + i for i in range(extra)]
        samples += [rng.uniform(0.001, 0.01) for _ in range(window)]
        metrics = ServiceMetrics()
        for latency in samples:
            metrics.observe(response, latency, offloaded=False)
        newest = ServiceMetrics()
        for latency in samples[-window:]:
            newest.observe(response, latency, offloaded=False)
        summary, expected = metrics.summary(), newest.summary()
        assert summary["completed"] == window + extra
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            assert summary[key] == expected[key]
        assert summary["p99_ms"] < 1000.0

    def test_reset_zeroes_counters(self, engine):
        async def run():
            async with VoiceService(engine, ServingConfig(concurrency=2)) as service:
                await service.submit(VoiceRequest(text="help"))
                service.metrics.reset()
                return service.metrics.summary()

        summary = asyncio.run(run())
        assert summary["completed"] == 0
        assert summary["p99_ms"] == 0.0


class TestServingConfigConstruction:
    def test_positional_non_config_second_argument_fails_loudly(self, engine):
        with pytest.raises(TypeError, match="ServingConfig"):
            VoiceService(engine, 8)

    def test_serving_knobs_are_not_keyword_arguments(self, engine):
        with pytest.raises(TypeError, match="concurrency"):
            VoiceService(engine, concurrency=2)
