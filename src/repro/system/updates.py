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
pre-processing.  Affected-query discovery works from the new rows
alone: a query gains a row exactly when its value tuple is one of the
new rows' non-NULL value tuples on its columns, so the affected
queries are those tuples, one set per dimension combination, never a
filter over the whole query space.  Re-summarization runs on the
:class:`repro.system.worker_pool.WorkerPool` the caller passes (``pool=``,
shared with the pre-processor) in scope-major chunks cut at
predicate-scope boundaries, with the order-preserving merge keeping
the maintained store identical to a serial pass.  Without a parallel
pool the one chunk holds every affected query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any

from repro.algorithms.base import Summarizer
from repro.core.expectation import ExpectationModel
from repro.core.priors import Prior
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.preprocessor import (
    Preprocessor,
    resolve_parallelism,
    scope_chunk_size,
    solve_query_chunk,
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
        # Kept across appends, its column codes and target floats
        # extended by each batch instead of read again.
        self._generator: ProblemGenerator | None = None

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
        consistent with the last successfully published store.  The
        kept problem generator is dropped with the table it covered.
        """
        self._table = table
        self._generator = None

    # ------------------------------------------------------------------
    # Change analysis
    # ------------------------------------------------------------------
    def affected_queries(self, new_rows: Table) -> list[DataQuery]:
        """Queries whose data subset contains at least one new row.

        The empty-predicate query is always affected; a predicated query
        is affected when some new row carries exactly its dimension
        values.  Queries are enumerated against the *updated* table so
        previously unseen dimension values produce new queries too.
        """
        return self._affected_from(self._table.concat(new_rows), new_rows)

    def _affected_from(self, updated: Table, new_rows: Table) -> list[DataQuery]:
        """The affected queries, in (scope-major) enumeration order.

        Per dimension combination (in configured order), the affected
        scopes are the new rows' distinct non-NULL value tuples on it.
        :meth:`ProblemGenerator.enumerate_queries` orders a column's
        values by first appearance in ``updated``, so the tuples sort by
        the rows where their values first appear.  Each scope is
        followed by every target.
        """
        if new_rows.num_rows == 0:
            return []
        first: dict[str, list[int | None]] = {
            dim: [
                None if value is None else updated.column(dim).first_index(value)
                for value in new_rows.column(dim)
            ]
            for dim in self._config.dimensions
        }
        predicates: list[dict[str, Any]] = []
        for length in range(1, self._config.max_query_length + 1):
            for dims in combinations(self._config.dimensions, length):
                tuples = zip(*(first[dim] for dim in dims))
                rows = {row for row in tuples if None not in row}
                predicates.extend(
                    {dim: updated.value(index, dim) for dim, index in zip(dims, row)}
                    for row in sorted(rows)
                )
        return [
            DataQuery.create(target, scope)
            for scope in ({}, *predicates)
            for target in self._config.targets
        ]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def maintain(
        self,
        new_rows: Table,
        store: SpeechStore,
        chunk_size: int | None = None,
        pool: WorkerPool | None = None,
    ) -> MaintenanceReport:
        """Append ``new_rows`` and refresh every affected speech in ``store``.

        The store is modified in place; speeches for unaffected queries
        are left exactly as they were.  A parallel ``pool`` (typically
        shared with batch pre-processing, so process start-up is paid
        once across passes) fans the re-summarization out in chunks of
        about ``chunk_size`` queries, rounded up to whole predicate
        scopes so every target of a scope is solved on one shared set-up
        (see :meth:`ProblemGenerator.build_problem`).  Without one the
        pass is serial: one chunk holding every affected query, in order.
        Rebuilt speeches are merged back in enumeration order, so the
        maintained store and the report counts are identical to a serial
        pass for any pool or chunk size.
        """
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        start = time.perf_counter()

        preprocessor = Preprocessor(
            self._config, summarizer=self._summarizer, realizer=self._realizer
        )
        pool = resolve_parallelism(preprocessor.summarizer, pool, verb="maintaining")

        report = MaintenanceReport(new_rows=new_rows.num_rows, workers=pool.workers)
        before = len(store)

        self._table = self._table.concat(new_rows)
        if self._generator is None:
            self._generator = ProblemGenerator(
                self._config,
                self._table,
                prior=self._prior,
                expectation_model=self._expectation_model,
            )
        else:
            self._generator = self._generator.appended(self._table, new_rows)
        affected = self._affected_from(self._table, new_rows)
        report.affected_queries = len(affected)

        if not pool.parallel:
            chunk_size = len(affected) or 1
        size = scope_chunk_size(
            chunk_size, len(affected), pool.workers, len(self._config.targets)
        )
        chunks = (affected[start : start + size] for start in range(0, len(affected), size))
        context = (self._generator, preprocessor.summarizer, self._realizer)
        solved = pool.imap_chunks(context, solve_query_chunk, chunks)
        outcomes = [outcome for chunk_outcomes in solved for outcome in chunk_outcomes]
        replaced = self._merge_outcomes(outcomes, store, report)

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
