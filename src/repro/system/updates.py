"""Incremental maintenance of the speech store.

The paper's deployment assumes static data: "As long as data remain
static, significant pre-processing overheads can be amortized over many
queries" (Section VIII-E).  When new rows arrive (new flights, new poll
results), re-running the full pre-processing batch is wasteful — only
the speeches whose data subsets contain at least one new row can
change.  :class:`IncrementalMaintainer` appends the new rows, finds the
affected queries, and re-summarizes exactly those, leaving the rest of
the store untouched.

Maintenance is built on the same streaming service layer as batch
pre-processing.  Affected-query discovery no longer probes every query
against every new row in Python: the new rows' dimension values are
folded into one membership set per predicate column combination, so
each enumerated query costs one set probe instead of
O(new rows × predicates) dict lookups.  Re-summarization fans out over
a :class:`repro.system.worker_pool.WorkerPool` (``workers=N``, or a
caller-owned ``pool=`` shared with the pre-processor), with the
order-preserving merge keeping the maintained store identical to a
serial pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Iterator

from repro.algorithms.base import Summarizer
from repro.core.expectation import ExpectationModel
from repro.core.priors import Prior
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.preprocessor import (
    Preprocessor,
    default_chunk_size,
    resolve_parallelism,
    solve_query_chunk,
    stream_solved_chunks,
)
from repro.system.problem_generator import ProblemGenerator
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore
from repro.system.templates import SpeechRealizer
from repro.system.worker_pool import WorkerPool


@dataclass
class MaintenanceReport:
    """Outcome of one incremental maintenance pass.

    Attributes
    ----------
    new_rows:
        Number of appended rows.
    affected_queries:
        Queries whose data subset gained at least one new row.
    rebuilt_speeches:
        Speeches actually regenerated (affected queries whose subsets
        are still summarizable), including speeches for brand-new
        queries introduced by previously unseen dimension values.
    unchanged_speeches:
        Pre-existing speeches left untouched in the store (rebuilds
        that merely *added* a new query's speech do not reduce this).
    total_seconds:
        Wall-clock time of the maintenance pass.
    workers:
        Number of pool workers used for re-summarization (0 = serial).
    """

    new_rows: int = 0
    affected_queries: int = 0
    rebuilt_speeches: int = 0
    unchanged_speeches: int = 0
    total_seconds: float = 0.0
    rebuilt_labels: list[str] = field(default_factory=list)
    workers: int = 0


class IncrementalMaintainer:
    """Keeps a speech store in sync with an append-only table.

    Parameters
    ----------
    config:
        The deployment's summarization configuration.
    table:
        The current table contents (before updates).
    summarizer / realizer / prior / expectation_model:
        Forwarded to the rebuild pre-processor; defaults match
        :class:`repro.system.preprocessor.Preprocessor`.
    """

    def __init__(
        self,
        config: SummarizationConfig,
        table: Table,
        summarizer: Summarizer | None = None,
        realizer: SpeechRealizer | None = None,
        prior: Prior | None = None,
        expectation_model: ExpectationModel | None = None,
    ):
        self._config = config
        self._table = table
        self._summarizer = summarizer
        self._realizer = realizer or SpeechRealizer()
        self._prior = prior
        self._expectation_model = expectation_model

    @property
    def table(self) -> Table:
        """The current table (including all applied updates)."""
        return self._table

    def rollback_table(self, table: Table) -> None:
        """Restore the table after a failed maintenance pass.

        :meth:`maintain` appends the new rows *before* re-summarizing,
        so a pass that fails midway leaves the table advanced past the
        speeches that were actually rebuilt.  Callers that can retry or
        skip a failed batch (the serving scheduler) capture ``table``
        before the pass and restore it here, keeping the maintainer
        consistent with the last successfully published store.
        """
        self._table = table

    # ------------------------------------------------------------------
    # Change analysis
    # ------------------------------------------------------------------
    def affected_queries(self, new_rows: Table) -> list[DataQuery]:
        """Queries whose data subset contains at least one new row.

        The empty-predicate query is always affected; a predicated query
        is affected when some new row carries exactly its dimension
        values.  Queries are enumerated against the *updated* table so
        previously unseen dimension values produce new queries too.

        A query with predicates on columns ``(c1, …, ck)`` gains a row
        exactly when its value tuple appears among the new rows'
        ``(c1, …, ck)`` projections, so matching is one membership probe
        into a per-column-combination set of new-row value tuples —
        built once from the new rows' column arrays — instead of a
        Python predicate scan over every (query, new row) pair.
        """
        updated = self._table.concat(new_rows)
        generator = ProblemGenerator(
            self._config,
            updated,
            prior=self._prior,
            expectation_model=self._expectation_model,
        )
        return list(self._affected_from(generator, new_rows))

    def _affected_from(
        self, generator: ProblemGenerator, new_rows: Table
    ) -> Iterator[DataQuery]:
        """Stream affected queries in enumeration order."""
        if new_rows.num_rows == 0:
            return
        new_values = {
            dim: new_rows.column(dim).values for dim in self._config.dimensions
        }
        # Keys must be in sorted column order: DataQuery canonicalizes
        # its predicates that way, regardless of configuration order.
        sorted_dimensions = sorted(self._config.dimensions)
        combo_sets: dict[tuple[str, ...], set[tuple[Any, ...]]] = {(): set()}
        for length in range(1, self._config.max_query_length + 1):
            for dims in combinations(sorted_dimensions, length):
                combo_sets[dims] = set(zip(*(new_values[dim] for dim in dims)))
        for query in generator.enumerate_queries():
            dims = tuple(column for column, _ in query.predicates)
            if not dims:
                # Empty scope contains every row, hence every new row.
                yield query
            elif tuple(value for _, value in query.predicates) in combo_sets[dims]:
                yield query

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def maintain(
        self,
        new_rows: Table,
        store: SpeechStore,
        workers: int = 0,
        chunk_size: int | None = None,
        pool: WorkerPool | None = None,
    ) -> MaintenanceReport:
        """Append ``new_rows`` and refresh every affected speech in ``store``.

        The store is modified in place; speeches for unaffected queries
        are left exactly as they were.  ``workers`` > 1 fans the
        re-summarization out over a per-call worker pool; passing
        ``pool`` reuses a caller-owned
        :class:`repro.system.worker_pool.WorkerPool` (shared with batch
        pre-processing) instead, amortising process start-up across
        maintenance passes.  Rebuilt speeches are merged back in
        enumeration order, so the maintained store and the report
        counts are identical to a serial pass for any worker count or
        chunk size.
        """
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        start = time.perf_counter()

        preprocessor = Preprocessor(
            self._config, summarizer=self._summarizer, realizer=self._realizer
        )
        effective_workers, pool = resolve_parallelism(
            preprocessor.summarizer, workers, pool, verb="maintaining"
        )

        report = MaintenanceReport(
            new_rows=new_rows.num_rows, workers=effective_workers
        )
        before = len(store)

        self._table = self._table.concat(new_rows)
        generator = ProblemGenerator(
            self._config,
            self._table,
            prior=self._prior,
            expectation_model=self._expectation_model,
        )
        affected = list(self._affected_from(generator, new_rows))
        report.affected_queries = len(affected)

        context = (generator, preprocessor.summarizer, self._realizer)
        replaced = 0
        if effective_workers and affected:
            if chunk_size is None:
                chunk_size = default_chunk_size(len(affected), effective_workers)
            chunks = (
                affected[i : i + chunk_size]
                for i in range(0, len(affected), chunk_size)
            )
            for chunk_result in stream_solved_chunks(
                context, chunks, effective_workers, pool
            ):
                replaced += self._merge_outcomes(chunk_result, store, report)
        else:
            replaced = self._merge_outcomes(
                solve_query_chunk(context, affected), store, report
            )

        report.unchanged_speeches = max(0, before - replaced)
        report.total_seconds = time.perf_counter() - start
        return report

    @staticmethod
    def _merge_outcomes(outcomes, store: SpeechStore, report: MaintenanceReport) -> int:
        """Fold solved outcomes (in enumeration order) into the store.

        Returns how many of them *replaced* an existing speech (as
        opposed to adding one for a brand-new query), so the caller can
        count genuinely untouched speeches.
        """
        replaced = 0
        for outcome in outcomes:
            if outcome is None:
                continue
            stored, _fact_evaluations = outcome
            if store.exact_match(stored.query) is not None:
                replaced += 1
            store.add(stored)
            report.rebuilt_speeches += 1
            report.rebuilt_labels.append(stored.query.describe())
        return replaced
