"""Snapshot-consistency properties of concurrent serving + maintenance.

The contract of the serving layer: every response equals what a
*quiesced* engine would answer from one of the stores that existed
while the request was in flight — the pre-maintenance store or the
store after any completed maintenance job — never a torn mix; and the
post-swap store is byte-identical to running serial maintenance on the
exact batches the scheduler's jobs consumed, in order.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ServingConfig, VoiceRequest
from repro.serving import VoiceService
from repro.system.persistence import store_to_dict
from repro.system.updates import IncrementalMaintainer

from tests.serving.conftest import append_table, make_config, make_engine
from tests.conftest import build_example_table

QUESTIONS = [
    "what is the delay in Winter",
    "delays for East",
    "delays for East in Winter",
    "delays for North in Summer",
    "what is the average delay",
    "delays for West in Fall",
]

APPEND_ROWS = [
    ("East", "Winter", 55.0),
    ("North", "Summer", 44.0),
    ("East", "Winter", 5.0),
    ("West", "Fall", 30.0),
    ("South", "Spring", 12.0),
]


def store_payload(store) -> str:
    return json.dumps(store_to_dict(store), sort_keys=True)


def replay_serially(jobs):
    """A quiesced engine maintained with each job's exact batch, in order.

    Returns the list of store payload/answer states: index 0 is the
    pre-maintenance state, index i the state after jobs[:i].
    """
    reference = make_engine(build_example_table())
    maintainer = IncrementalMaintainer(
        make_config(),
        reference.table,
        summarizer=reference.summarizer,
        realizer=reference.realizer,
    )
    states = [snapshot_state(reference)]
    for job in jobs:
        report = maintainer.maintain(job.new_rows, reference.store)
        assert report.new_rows == job.new_rows.num_rows
        states.append(snapshot_state(reference))
    return states


def snapshot_state(reference):
    return {
        "payload": store_payload(reference.store),
        "answers": {text: reference.respond(text).text for text in QUESTIONS},
    }


def run_interleaved(batch_splits: list[list[tuple]], questions: list[str]):
    """Serve ``questions`` while appending the batches; return evidence."""
    engine = make_engine(build_example_table())

    async def drive():
        responses = []
        config = ServingConfig(concurrency=4, max_queue_depth=256)
        async with VoiceService(engine, config) as service:
            append_points = {
                (index + 1) * max(1, len(questions) // (len(batch_splits) + 1)): batch
                for index, batch in enumerate(batch_splits)
            }
            tasks = []
            for index, text in enumerate(questions):
                tasks.append(asyncio.ensure_future(service.submit(VoiceRequest(text=text))))
                if index in append_points:
                    service.request_append(append_table(append_points[index]))
                if index % 3 == 0:
                    await asyncio.sleep(0)  # let workers and jobs interleave
            responses = await asyncio.gather(*tasks)
            await service.scheduler.quiesce()
            jobs = list(service.scheduler.jobs)
            final_store = service.registry.current.store
        assert all(job.status == "completed" for job in jobs)
        return responses, jobs, final_store, service.metrics.summary()

    return asyncio.run(drive()), engine


class TestSnapshotConsistency:
    def test_interleaved_responses_match_a_quiesced_state(self):
        batches = [APPEND_ROWS[:2], APPEND_ROWS[2:]]
        questions = QUESTIONS * 6
        (responses, jobs, final_store, summary), engine = run_interleaved(
            batches, questions
        )
        states = replay_serially(jobs)

        # Every response equals the quiesced answer of *some* store
        # state that existed during the run (snapshot consistency: no
        # torn reads, no phantom speeches).
        for text, response in zip(questions, responses):
            valid_answers = {state["answers"][text] for state in states}
            assert response.text in valid_answers, (
                f"{text!r} answered {response.text!r}, expected one of "
                f"{valid_answers!r}"
            )

        # The post-swap store is byte-identical to serial maintenance on
        # the same job batches in the same order.
        assert store_payload(final_store) == states[-1]["payload"]
        # The engine adopted the final snapshot at stop().
        assert store_payload(engine.store) == states[-1]["payload"]
        assert summary["errors"] == 0
        assert summary["completed"] == len(questions)

    def test_quiesced_service_equals_plain_engine(self):
        (responses, jobs, final_store, summary), _ = run_interleaved([], QUESTIONS)
        assert jobs == []
        states = replay_serially(jobs)
        for text, response in zip(QUESTIONS, responses):
            assert response.text == states[0]["answers"][text]
        assert store_payload(final_store) == states[0]["payload"]


class TestPropertyInterleavings:
    @settings(max_examples=12, deadline=None)
    @given(
        split_at=st.integers(min_value=1, max_value=len(APPEND_ROWS) - 1),
        question_order=st.permutations(QUESTIONS * 3),
    )
    def test_random_interleavings_stay_consistent(self, split_at, question_order):
        batches = [APPEND_ROWS[:split_at], APPEND_ROWS[split_at:]]
        (responses, jobs, final_store, summary), _ = run_interleaved(
            batches, list(question_order)
        )
        states = replay_serially(jobs)
        for text, response in zip(question_order, responses):
            valid_answers = {state["answers"][text] for state in states}
            assert response.text in valid_answers
        assert store_payload(final_store) == states[-1]["payload"]
        assert summary["errors"] == 0
