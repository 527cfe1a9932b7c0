"""Batch pre-processing: solve every generated problem and fill the store.

This is the "Speech Summarizer" box of Figure 2.  Pre-processing cost
is the price paid for near-zero run-time latency (Figure 10): the
deployment spends minutes in this loop and afterwards answers queries
by a simple store lookup.

The batch is embarrassingly parallel — each query's problem is built
and solved independently — so a run's parallelism is the
:class:`repro.system.worker_pool.WorkerPool` it is handed (``pool=``,
reused across runs): a parallel pool fans chunks of the enumerated
queries out over its processes, and no pool (or a serial one) solves
the same chunk stream in process.  Queries are fed from
:meth:`ProblemGenerator.enumerate_query_chunks`, so the full query list
is never materialised; chunks come back as realized speeches and are
merged in enumeration order, so the resulting store (and its persisted
JSON) is byte-identical for every pool size and chunk size.  The
enumeration is scope-major and walks each dimension combination's
scopes in order, and the generator keeps the last combination's set-up
(see :meth:`ProblemGenerator.build_problem`).  A serial run makes one
grouping pass, shared by all targets, for the empty scope, for each
scope of one column and for the first scope of each combination of
more, plus one pass over the table for each such combination's other
scopes.  The greedy loop then solves a walk a target at a time: the
first of its problems to be solved runs one loop over all of the
walk's scopes, and the others read their speeches off it (see
:func:`repro.algorithms.greedy.solve`).  In a pool, chunks hold whole
scopes (:func:`scope_chunk_size`), and a chunk that starts inside a
walk builds the walk's remaining scopes from their own rows and solves
each alone.
Summarizers whose output depends on call order
(``Summarizer.deterministic`` is False) are run serially even on a
parallel pool, so the guarantee holds for every algorithm.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.algorithms.base import Summarizer
from repro.algorithms.registry import make_summarizer
from repro.system.config import SummarizationConfig
from repro.system.problem_generator import ProblemGenerator
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore, StoredSpeech
from repro.system.templates import SpeechRealizer
from repro.system.worker_pool import WorkerPool


@dataclass
class PreprocessingReport:
    """Summary of one pre-processing run.

    Attributes
    ----------
    speeches_generated:
        Number of speeches stored.
    queries_considered:
        Number of queries enumerated (including skipped ones).
    queries_skipped:
        Queries whose data subset was too small to summarize.
    total_seconds:
        Wall-clock time of the whole batch.
    total_utility / total_scaled_utility:
        Sums over all generated speeches (for averaging in reports).
    per_query_seconds:
        Average pre-processing time per stored speech.
    workers:
        Number of pool workers used (0 = serial in-process run).
    """

    speeches_generated: int = 0
    queries_considered: int = 0
    queries_skipped: int = 0
    total_seconds: float = 0.0
    total_utility: float = 0.0
    total_scaled_utility: float = 0.0
    algorithm: str = ""
    fact_evaluations: int = 0
    query_labels: list[str] = field(default_factory=list)
    workers: int = 0

    @property
    def per_query_seconds(self) -> float:
        """Average pre-processing time per generated speech."""
        if self.speeches_generated == 0:
            return 0.0
        return self.total_seconds / self.speeches_generated

    @property
    def average_scaled_utility(self) -> float:
        """Average scaled utility over all generated speeches."""
        if self.speeches_generated == 0:
            return 0.0
        return self.total_scaled_utility / self.speeches_generated


# ----------------------------------------------------------------------
# Pool worker plumbing
# ----------------------------------------------------------------------
def _solve_query(
    generator: ProblemGenerator,
    summarizer: Summarizer,
    realizer: SpeechRealizer,
    query: DataQuery,
) -> tuple[StoredSpeech, int] | None:
    """Solve one query end to end; None marks a skipped (too small) query.

    Every chunk, solved in a pool worker or in process, goes through
    this single function, so serial and parallel runs cannot drift apart.
    """
    problem = generator.build_problem(query)
    if problem is None:
        return None
    result = summarizer.summarize(problem)
    text = realizer.realize(query, result.speech)
    return (
        StoredSpeech(
            query=query,
            speech=result.speech,
            text=text,
            utility=result.utility,
            scaled_utility=result.scaled_utility,
            algorithm=result.algorithm,
        ),
        result.statistics.fact_evaluations,
    )


def solve_query_chunk(
    context: tuple[ProblemGenerator, Summarizer, SpeechRealizer],
    chunk: list[DataQuery],
) -> list[tuple[StoredSpeech, int] | None]:
    """Solve one chunk of queries under a broadcast worker-pool context.

    The context is the (generator, summarizer, realizer) triple shipped
    once per run by :class:`repro.system.worker_pool.WorkerPool`; serial
    runs and the incremental maintainer share this entry point, so every
    execution strategy funnels through :func:`_solve_query`.

    Queries are solved in chunk order.  The generator keeps the set-up of
    the last dimension combination (see
    :meth:`ProblemGenerator.build_problem`), so scope-major chunks, or a
    serial run's one-query chunks, group each scope's rows once for all
    its targets, and a combination's scopes walked in order once for all
    of them.
    """
    generator, summarizer, realizer = context
    return [_solve_query(generator, summarizer, realizer, query) for query in chunk]


#: The pool of a serial run: chunks are solved in the calling process.
SERIAL_POOL = WorkerPool(0)


def resolve_parallelism(
    summarizer: Summarizer, pool: WorkerPool | None, verb: str = "running"
) -> WorkerPool:
    """The pool one batch runs on: ``pool`` if it is parallel, else serial.

    Summarizers that carry state across problems (``deterministic``
    False, e.g. the RANDOM baseline) cannot be sharded without changing
    their output, so a parallel pool is declined for them with a
    warning.  Shared by batch pre-processing and incremental
    maintenance so the policy cannot drift between them.
    """
    if pool is None or not pool.parallel:
        return SERIAL_POOL
    if not summarizer.deterministic:
        warnings.warn(
            f"summarizer {summarizer.name!r} carries state across "
            f"problems; {verb} serially to keep its output reproducible",
            stacklevel=3,
        )
        return SERIAL_POOL
    return pool


def scope_chunk_size(
    chunk_size: int | None, total_queries: int, workers: int, per_scope: int
) -> int:
    """Queries per pool task: about ``chunk_size``, cut at whole predicate scopes.

    Queries come scope-major, ``per_scope`` (one per target) to a scope,
    so a chunk of a multiple of ``per_scope`` queries never splits a
    scope over two workers, each of which would build its set-up.
    ``chunk_size`` defaults to ~4 tasks per worker (scheduling slack
    vs. per-task pickling overhead) and is rounded up to whole scopes.
    """
    if chunk_size is None:
        chunk_size = max(1, -(-total_queries // (workers * 4)))
    return -(-chunk_size // per_scope) * per_scope


class Preprocessor:
    """Runs a summarization algorithm over every pre-processing query.

    Queries are solved and stored in scope-major enumeration order (see
    :meth:`ProblemGenerator.enumerate_queries`): every target of a
    predicate scope back to back, on one shared set-up.

    Parameters
    ----------
    config:
        The summarization configuration.
    summarizer:
        Algorithm instance; when omitted, ``config.algorithm`` is
        instantiated from the registry.
    realizer:
        Speech realizer used to render stored speech texts.
    """

    def __init__(
        self,
        config: SummarizationConfig,
        summarizer: Summarizer | None = None,
        realizer: SpeechRealizer | None = None,
    ):
        self._config = config
        self._summarizer = summarizer or make_summarizer(config.algorithm)
        self._realizer = realizer or SpeechRealizer()

    @property
    def summarizer(self) -> Summarizer:
        """The algorithm used for pre-processing."""
        return self._summarizer

    def run(
        self,
        generator: ProblemGenerator,
        store: SpeechStore | None = None,
        max_problems: int | None = None,
        chunk_size: int | None = None,
        pool: WorkerPool | None = None,
    ) -> tuple[SpeechStore, PreprocessingReport]:
        """Solve all generated problems and store the resulting speeches.

        ``max_problems`` caps the number of solved problems (useful for
        tests and scaled-down experiments); it keeps the first ones in
        scope-major order, so every target of fewer scopes.  A parallel
        ``pool`` streams query chunks across its workers and stays open
        for the caller's next run; without one the run is serial.
        Either way the merged store is byte-identical to the serial
        result.  Summarizers that carry state across problems
        (``deterministic`` False, e.g. the RANDOM baseline) cannot be
        sharded without changing their output, so they run serially
        with a warning.  ``chunk_size`` overrides the task granularity
        (on a pool, rounded up to whole predicate scopes).
        """
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        pool = resolve_parallelism(self._summarizer, pool)
        store = store if store is not None else SpeechStore()
        report = PreprocessingReport(algorithm=self._summarizer.name, workers=pool.workers)
        start = time.perf_counter()
        outcomes = self._outcomes(generator, pool, chunk_size, max_problems)
        self._merge(outcomes, store, report, max_problems)
        report.total_seconds = time.perf_counter() - start
        return store, report

    def _outcomes(
        self,
        generator: ProblemGenerator,
        pool: WorkerPool,
        chunk_size: int | None,
        max_problems: int | None,
    ) -> Iterator[tuple[StoredSpeech, int] | None]:
        """Per-query outcomes, solved chunk by chunk on ``pool``, in query order.

        The query stream is never materialised: chunks come from
        :meth:`ProblemGenerator.enumerate_query_chunks` (one query each
        in a serial run; ~4 per worker in a parallel one, cut at whole
        predicate scopes by :func:`scope_chunk_size`) and the pool
        collects results first-in-first-out — so flattening them
        reproduces the exact enumeration order no matter which worker
        solved which chunk.  Once ``max_problems`` speeches have been
        produced no further chunks are dispatched (chunks already in
        flight finish unobserved; the pool stays usable).  The
        remaining queries are reported as bare None outcomes, which the
        merge step only counts — their count comes from the arithmetic
        query counter, so the cap short-circuits without enumerating
        the tail.
        """
        total_queries = generator.count_queries()
        if not total_queries:
            return
        if pool.parallel:
            chunk_size = scope_chunk_size(
                chunk_size, total_queries, pool.workers, len(generator.config.targets)
            )
        elif chunk_size is None:
            chunk_size = 1
        context = (generator, self._summarizer, self._realizer)
        chunk_results = pool.imap_chunks(
            context, solve_query_chunk, generator.enumerate_query_chunks(chunk_size)
        )
        yielded = 0
        solved = 0
        for chunk_result in chunk_results:
            for outcome in chunk_result:
                yield outcome
                yielded += 1
                if outcome is not None:
                    solved += 1
            if max_problems is not None and solved >= max_problems:
                chunk_results.close()
                break
        for _ in range(total_queries - yielded):
            yield None

    def _merge(
        self,
        outcomes: Iterable[tuple[StoredSpeech, int] | None],
        store: SpeechStore,
        report: PreprocessingReport,
        max_problems: int | None,
    ) -> None:
        """Fold per-query outcomes (in enumeration order) into the store."""
        solved = 0
        for outcome in outcomes:
            report.queries_considered += 1
            if max_problems is not None and solved >= max_problems:
                continue
            if outcome is None:
                report.queries_skipped += 1
                continue
            stored, fact_evaluations = outcome
            store.add(stored)
            solved += 1
            report.speeches_generated += 1
            report.total_utility += stored.utility
            report.total_scaled_utility += stored.scaled_utility
            report.fact_evaluations += fact_evaluations
            report.query_labels.append(stored.query.describe())
