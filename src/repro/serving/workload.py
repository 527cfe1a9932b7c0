"""Serving workload synthesis and the shared request driver.

The CLI ``serve`` smoke and the serving benchmark need realistic
request streams: transcripts the parser maps back onto the store's
queries.  Questions are synthesized from the stored queries themselves
— "what is the <target> for <value> and <value>" — so most requests are
exact store hits (the paper's dominant case), with a configurable share
of *miss* questions built by crossing predicate values of different
stored queries, which exercise subset matching.

:func:`drive_requests` drives a :class:`VoiceService` directly and
is the one async driver both service-level consumers use:
client-side pacing within the service's queue bounds, append triggers
at submission indices, failures folded into the service metrics rather
than raised mid-stream, and the summary sampled the moment the last
request completes (before any shutdown work pollutes the clock).
"""

from __future__ import annotations

import asyncio

from repro.api.envelopes import VoiceRequest
from repro.relational.table import Table
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore


def holdout_split(table: Table, append_rows: int) -> tuple[Table, Table]:
    """Split a table into a base slice and held-out append rows.

    The table's last ``append_rows`` rows (clamped so the base keeps at
    least two rows) become the simulated update batch.  Shared by the
    ``maintain``/``serve`` CLI commands and the serving benchmark.
    """
    held_out = max(1, min(append_rows, table.num_rows - 2))
    base_count = table.num_rows - held_out
    base = table.mask([index < base_count for index in range(table.num_rows)])
    new_rows = table.mask([index >= base_count for index in range(table.num_rows)])
    return base, new_rows


def split_batches(rows: Table, parts: int) -> list[Table]:
    """Split a table into up to ``parts`` contiguous non-empty batches.

    Shared by the CLI ``serve`` driver and the serving benchmark to
    slice held-out rows into maintenance append batches.
    """
    if parts < 1 or rows.num_rows == 0:
        return []
    parts = min(parts, rows.num_rows)
    size = -(-rows.num_rows // parts)
    return [
        rows.mask([start <= index < start + size for index in range(rows.num_rows)])
        for start in range(0, rows.num_rows, size)
    ]


def question_for_query(query: DataQuery) -> str:
    """A transcript the lexicon parser maps back to ``query``.

    That holds only when each predicate value names one dimension in
    the value lexicon; a value shared by two dimensions parses as the
    first of them.  Flights' origin and destination regions share all
    four values, so its destination-region queries do not round-trip.
    """
    target_phrase = query.target.replace("_", " ")
    if not query.predicates:
        return f"what is the {target_phrase}"
    values = " and ".join(str(value) for _, value in query.predicates)
    return f"what is the {target_phrase} for {values}"


def _miss_queries(queries: list[DataQuery]) -> list[DataQuery]:
    """Two-predicate queries crossing values of distinct stored queries.

    Crossing single-predicate queries on different dimensions yields
    subsets that are usually *not* stored exactly (stores built with
    ``max_query_length`` 1 never store them), so their questions take
    the subset-matching path instead of the exact-probe fast path.
    """
    singles: dict[str, list[DataQuery]] = {}
    for query in queries:
        if query.length == 1:
            singles.setdefault(query.target, []).append(query)
    misses = []
    for target, candidates in singles.items():
        for first in candidates:
            for second in candidates:
                first_col = first.predicates[0][0]
                second_col, second_val = second.predicates[0]
                if first_col == second_col:
                    continue
                predicates = dict(first.predicate_map)
                predicates[second_col] = second_val
                misses.append(DataQuery.create(target, predicates))
    return misses


def serving_questions(
    store: SpeechStore, count: int, miss_every: int = 4
) -> list[str]:
    """``count`` transcripts cycling over the store's queries.

    Every ``miss_every``-th question (when crossable predicate pairs
    exist) targets a subset that is typically not stored exactly,
    exercising the non-exact lookup path; the rest are exact hits in
    store insertion order.
    """
    queries = [stored.query for stored in store]
    if not queries:
        raise ValueError("cannot synthesize a workload from an empty store")
    misses = _miss_queries(queries)
    questions = []
    hit_index = miss_index = 0
    for position in range(count):
        if misses and miss_every and position % miss_every == miss_every - 1:
            questions.append(question_for_query(misses[miss_index % len(misses)]))
            miss_index += 1
        else:
            questions.append(question_for_query(queries[hit_index % len(queries)]))
            hit_index += 1
    return questions


async def drive_requests(
    service,
    questions: list[str],
    append_at: dict[int, object] | None = None,
    max_outstanding: int = 32,
    tick: int = 32,
) -> tuple[dict, int]:
    """Submit every question as a session-less request, with appends.

    ``append_at`` maps a submission index to one append batch (or a
    list of batches) handed to ``service.request_append`` just before
    that submission.  A client-side semaphore keeps at most
    ``max_outstanding`` requests outstanding, so a well-paced driver
    never trips the service's own admission control; every ``tick``
    submissions the loop yields so workers and maintenance interleave.

    Request failures are not raised here — they surface through the
    service metrics (``errors``/``rejected``) for the caller to gate
    on.  Returns ``(summary, completed_during_maintenance)``: the
    metrics summary sampled the moment the last request completed
    (before the trailing maintenance drain, so qps and percentiles
    cover exactly the request window), and the number of requests
    completed after the first append was requested — the direct
    evidence that serving continued during maintenance.
    """
    batches_at: dict[int, list] = {}
    for index, batch in (append_at or {}).items():
        batches_at[index] = list(batch) if isinstance(batch, list) else [batch]
    limiter = asyncio.Semaphore(max(1, max_outstanding))
    completed_at_first_append = None

    async def one(text: str):
        async with limiter:
            return await service.submit(VoiceRequest(text=text))

    tasks = []
    for index, text in enumerate(questions):
        for batch in batches_at.get(index, ()):
            if completed_at_first_append is None:
                completed_at_first_append = service.metrics.completed
            service.request_append(batch)
        tasks.append(asyncio.ensure_future(one(text)))
        if tick and index % tick == 0:
            await asyncio.sleep(0)
    await asyncio.gather(*tasks, return_exceptions=True)
    summary = service.metrics.summary()
    completed_during = 0
    if batches_at:
        completed_during = service.metrics.completed - (
            completed_at_first_append or 0
        )
        await service.scheduler.quiesce()
    return summary, completed_during

