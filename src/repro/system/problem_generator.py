"""Problem generator: one summarization problem per pre-processed query.

Section III: "The Problem Generator creates one query for each
combination of a target column and a subset of equality predicates,
considering all possible combinations of equality predicates up to the
query length.  For each such query, we generate a speech summarizing
values in the target column for the data subset defined by the query
predicates."
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Any, Iterator, Mapping

import numpy as np

from repro.core.errors import InvalidProblemError
from repro.core.expectation import ExpectationModel
from repro.core.model import DimensionCodes, SummarizationRelation, factorize
from repro.core.priors import ConstantPrior, Prior
from repro.core.problem import SummarizationProblem
from repro.facts.generation import FactGenerator
from repro.relational.operators import select
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.queries import DataQuery

# ``select`` computes the same subset row by row; it stays importable
# here because span tracers wrap it at this module path.
__all__ = ["GeneratedProblem", "ProblemGenerator", "select"]


@dataclass
class GeneratedProblem:
    """A query together with its summarization problem instance."""

    query: DataQuery
    problem: SummarizationProblem


class ProblemGenerator:
    """Enumerates pre-processing queries and builds their problems.

    Parameters
    ----------
    config:
        The summarization configuration.
    table:
        The data table referenced by the configuration.
    prior / expectation_model:
        Optional overrides for the problem instances.  By default the
        prior is the average of the target column over the *whole*
        table (the paper uses "the average value in the target column
        as a (constant) prior"), and the expectation model is the
        closest-relevant-value model.
    min_subset_rows:
        Data subsets with fewer rows than this are skipped (no speech is
        pre-generated for them).
    """

    def __init__(
        self,
        config: SummarizationConfig,
        table: Table,
        prior: Prior | None = None,
        expectation_model: ExpectationModel | None = None,
        min_subset_rows: int = 2,
    ):
        for column in (*config.dimensions, *config.targets):
            if not table.has_column(column):
                raise InvalidProblemError(
                    f"configured column {column!r} missing from table {table.name!r}"
                )
        self._config = config
        self._table = table
        self._prior = prior
        self._expectation_model = expectation_model
        self._min_subset_rows = min_subset_rows
        self._prior_cache: dict[str, Prior] = {}
        self._codes_cache: dict[str, DimensionCodes] = {}

    @property
    def config(self) -> SummarizationConfig:
        """The generator's configuration."""
        return self._config

    def __getstate__(self) -> dict:
        """Drop per-process caches when pickling (e.g. into pool workers).

        The prior and column-code caches hold numpy-heavy derived state
        that every worker can rebuild lazily from the table; shipping
        them would dominate the pool start-up payload.
        """
        state = self.__dict__.copy()
        state["_prior_cache"] = {}
        state["_codes_cache"] = {}
        return state

    # ------------------------------------------------------------------
    # Query enumeration
    # ------------------------------------------------------------------
    def enumerate_queries(self) -> Iterator[DataQuery]:
        """Yield every (target, predicate-combination) query.

        Predicates range over all dimension-value combinations that
        appear in the data; query lengths range from zero (the overall
        summary) up to ``max_query_length``.
        """
        domains = {
            dim: self._table.column(dim).distinct_values()
            for dim in self._config.dimensions
        }
        for target in self._config.targets:
            yield DataQuery.create(target, {})
            for length in range(1, self._config.max_query_length + 1):
                for dims in combinations(self._config.dimensions, length):
                    for values in product(*(domains[d] for d in dims)):
                        yield DataQuery.create(target, dict(zip(dims, values)))

    def enumerate_query_chunks(self, size: int) -> Iterator[list[DataQuery]]:
        """Stream the enumerated queries as lists of at most ``size``.

        This is the chunked feed for the worker-pool pipeline: chunks
        are built directly from the lazy enumeration, so no full query
        list is ever materialised — at 10^7 queries the peak memory is
        one chunk, not the query space.  Concatenating the chunks
        reproduces :meth:`enumerate_queries` order exactly.
        """
        if size < 1:
            raise ValueError(f"chunk size must be at least 1, got {size}")
        chunk: list[DataQuery] = []
        for query in self.enumerate_queries():
            chunk.append(query)
            if len(chunk) >= size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def count_queries(self) -> int:
        """Number of queries :meth:`enumerate_queries` yields.

        Computed arithmetically from the dimension domain sizes — for
        each target, one empty query plus, per dimension combination up
        to ``max_query_length``, the product of the combined domains —
        instead of exhausting the full enumeration just to count it
        (O(dimensions choose length) work instead of O(queries)).
        Parity with the enumeration is guarded by a test.
        """
        domain_sizes = {
            dim: len(self._table.column(dim).distinct_values())
            for dim in self._config.dimensions
        }
        per_target = 1
        for length in range(1, self._config.max_query_length + 1):
            for dims in combinations(self._config.dimensions, length):
                product_size = 1
                for dim in dims:
                    product_size *= domain_sizes[dim]
                per_target += product_size
        return len(self._config.targets) * per_target

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def build_problem(self, query: DataQuery) -> SummarizationProblem | None:
        """Build the summarization problem answering ``query``.

        Returns None when the query's data subset is too small or when
        no candidate facts can be generated for it.
        """
        relation = self.subset_relation(query)
        if relation is None:
            return None
        generated = FactGenerator(
            relation,
            max_extra_dimensions=self._config.max_fact_dimensions,
            min_support=self._config.min_fact_support,
        ).generate(base_scope=query.predicate_map)
        if not generated.facts:
            return None

        kwargs = {}
        kwargs["prior"] = self._prior if self._prior is not None else self._default_prior(query.target)
        if self._expectation_model is not None:
            kwargs["expectation_model"] = self._expectation_model
        return SummarizationProblem(
            relation=relation,
            candidate_facts=generated.facts,
            max_facts=self._config.max_facts_per_speech,
            label=query.describe(),
            # The generator already found every fact's rows.
            scope_index=generated.scope_index(relation),
            **kwargs,
        )

    def subset_relation(self, query: DataQuery) -> SummarizationRelation | None:
        """The relation over ``query``'s data subset; None when it is too small.

        Its table is the one ``select`` returns for the query's
        predicates, named ``<table>_subset``; ``min_subset_rows`` counts
        its rows before the relation drops NULL-target rows.  The rows
        are found on the table's cached column codes, and the relation
        inherits those codes instead of factorizing its dimensions again.
        """
        rows = self._subset_rows(query.predicate_map)
        if rows.size < self._min_subset_rows:
            return None
        codes = {}
        for dim in self._config.dimensions:
            dim_codes, decode, code_of = self._column_codes(dim)
            codes[dim] = (dim_codes[rows], decode, code_of)
        return SummarizationRelation(
            self._table.take(rows.tolist()).renamed(f"{self._table.name}_subset"),
            list(self._config.dimensions),
            query.target,
            codes=codes,
        )

    def _column_codes(self, column: str) -> DimensionCodes:
        """Integer codes of one table column, factorized once (cached)."""
        cached = self._codes_cache.get(column)
        if cached is None:
            cached = factorize(self._table.column(column))
            self._codes_cache[column] = cached
        return cached

    def _subset_rows(self, predicates: Mapping[str, Any]) -> np.ndarray:
        """Indices of the table rows matching every ``column = value`` predicate.

        Same semantics as ``select`` with the equality conjunction: NULL
        never matches, and neither does a value absent from the column.
        """
        mask = None
        for column, value in predicates.items():
            codes, _, code_of = self._column_codes(column)
            code = None if value is None else code_of.get(value)
            if code is None:
                return np.empty(0, dtype=np.intp)
            hits = codes == code
            mask = hits if mask is None else mask & hits
        if mask is None:
            return np.arange(self._table.num_rows)
        return np.flatnonzero(mask)

    def _default_prior(self, target: str) -> Prior:
        """Constant prior: the target's average over the whole table."""
        cached = self._prior_cache.get(target)
        if cached is None:
            summary = self._table.column(target).numeric_summary()
            cached = ConstantPrior(summary["mean"] if summary["count"] else 0.0)
            self._prior_cache[target] = cached
        return cached

    def generate(self) -> Iterator[GeneratedProblem]:
        """Yield (query, problem) pairs for every viable query."""
        for query in self.enumerate_queries():
            problem = self.build_problem(query)
            if problem is not None:
                yield GeneratedProblem(query=query, problem=problem)
