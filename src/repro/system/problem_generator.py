"""Problem generator: one summarization problem per pre-processed query.

Section III: "The Problem Generator creates one query for each
combination of a target column and a subset of equality predicates,
considering all possible combinations of equality predicates up to the
query length.  For each such query, we generate a speech summarizing
values in the target column for the data subset defined by the query
predicates."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, islice, product
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.core.errors import InvalidProblemError
from repro.core.expectation import ClosestRelevantFactModel, ExpectationModel
from repro.core.kernel import FactScopeIndex, ScopeBatch
from repro.core.model import (
    DimensionCodes,
    Scope,
    SummarizationRelation,
    extend_codes,
    factorize,
)
from repro.core.priors import ConstantPrior, Prior
from repro.core.problem import SummarizationProblem
from repro.facts.generation import FactGenerator, ScopeFamily
from repro.relational.column import ColumnType
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


@dataclass(frozen=True)
class CombinationSetup:
    """The target-independent half of the problems of one dimension combination.

    The problems of every scope over one combination of predicate
    columns, for every target, share one :class:`ScopeFamily`: each
    problem is slices of it plus the relation of its scope's rows.  A
    :class:`ProblemGenerator` keeps the set-up of the last combination
    it built.  The family covers the whole table when the generator
    walks the combination's scopes in enumeration order; ``batches``
    then holds each target's :class:`ScopeBatch` of the walked scopes
    (None for a target the batch cannot solve).  Otherwise the family
    is one scope's, built from that scope's own rows, which keeps
    ``predicates``, ``rows`` and the NULLs (among ``rows``) of the
    target that filled it.
    """

    columns: tuple[str, ...]
    family: ScopeFamily
    predicates: tuple | None = None
    rows: np.ndarray | None = None
    nulls: np.ndarray | None = None
    batches: dict[str, ScopeBatch | None] = field(default_factory=dict)


class WalkedProblem(SummarizationProblem):
    """The problem of a walked scope: a member of its target's batch, made of slices.

    The greedy loop reads only the batch, the candidates' count and the
    facts it selects, whose values the batch knows.  The relation (from
    ``relation``), the candidates' values and the scope index are made
    on first read: by G-P, E, RANDOM, the sampling baseline or a test.
    """

    def __init__(
        self,
        relation: Callable[[], SummarizationRelation],
        family: ScopeFamily,
        scope: int,
        base: Scope,
        label: str,
        max_facts: int,
        prior: Prior,
        batch: ScopeBatch,
    ):
        # Made once, by whichever reads it first.  The candidates' values
        # read it without a reference back to the problem: a cycle would
        # keep the walk's family alive until the cyclic collector ran.
        self._relation_of = relation = cache(relation)
        self._index: FactScopeIndex | None = None
        self._family, self._scope, self._base = family, scope, base
        self.candidate_facts = family.candidates(
            scope, base, lambda: family.values(scope, relation())
        )
        self.max_facts = max_facts
        self.prior = prior
        self.expectation_model = ClosestRelevantFactModel()
        self.label = label
        self.batch = (batch, scope)

    @property
    def relation(self) -> SummarizationRelation:  # type: ignore[override]
        return self._relation_of()

    @property
    def scope_index(self) -> FactScopeIndex:  # type: ignore[override]
        if self._index is None:
            family, scope, relation = self._family, self._scope, self.relation
            generated = family.generated(scope, relation, self._base, self.candidate_facts)
            self._index = generated.scope_index(relation)
            self._index.cache = family.cache(scope)
        return self._index

    def index(self) -> FactScopeIndex:
        return self.scope_index


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

    One thread builds problems on a generator at a time: it keeps the
    last dimension combination's :class:`CombinationSetup` between
    calls.  The engine's generator only pre-processes, and a
    maintainer's runs on the maintenance thread.
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
        for target in config.targets:
            if table.column(target).ctype is ColumnType.CATEGORICAL:
                raise InvalidProblemError(f"target column {target!r} must be numeric")
        self._config = config
        self._table = table
        self._prior = prior
        self._expectation_model = expectation_model
        self._min_subset_rows = min_subset_rows
        self._prior_cache: dict[str, Prior] = {}
        self._codes_cache: dict[str, DimensionCodes] = {}
        self._target_cache: dict[str, np.ndarray] = {}
        # The fact groups of each base-scope shape, for every FactGenerator.
        self._group_cache: dict = {}
        # The last dimension combination's set-up, and the last query's predicates.
        self._setup: CombinationSetup | None = None
        self._last: tuple | None = None
        # The table as subset relations name it.
        self._subset_table = table.renamed(f"{table.name}_subset")

    @property
    def config(self) -> SummarizationConfig:
        """The generator's configuration."""
        return self._config

    def __getstate__(self) -> dict:
        """Drop per-process caches when pickling (e.g. into pool workers).

        The prior, column-code and target caches hold numpy-heavy derived state
        that every worker can rebuild lazily from the table; shipping
        them would dominate the pool start-up payload.  The fact-group
        cache and the kept combination set-up are rebuilt likewise.
        """
        state = self.__dict__.copy()
        state["_prior_cache"] = {}
        state["_codes_cache"] = {}
        state["_target_cache"] = {}
        state["_group_cache"] = {}
        state["_setup"] = None
        state["_last"] = None
        return state

    # ------------------------------------------------------------------
    # Query enumeration
    # ------------------------------------------------------------------
    def enumerate_queries(self) -> Iterator[DataQuery]:
        """Yield every (target, predicate-combination) query, scope-major.

        Predicates range over all dimension-value combinations that
        appear in the data; query lengths range from zero (the overall
        summary) up to ``max_query_length``.  Scopes come in that order,
        then by dimension combination and value product, and each scope
        is followed by every target in configured order, so the scopes
        of a combination, and the targets of a scope, are built back to
        back on one :class:`CombinationSetup`.
        """
        domains = {
            dim: self._table.column(dim).distinct_values()
            for dim in self._config.dimensions
        }
        scopes = (
            dict(zip(dims, values))
            for length in range(1, self._config.max_query_length + 1)
            for dims in combinations(self._config.dimensions, length)
            for values in product(*(domains[d] for d in dims))
        )
        for scope in chain([{}], scopes):
            for target in self._config.targets:
                yield DataQuery.create(target, scope)

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
        no candidate facts can be generated for it.  The set-up of the
        last dimension combination is kept (see
        :class:`CombinationSetup`).  Asked for the second scope of a
        combination of two or more columns right after its first, in
        enumeration order, the generator lays out every scope of the
        combination in one pass over the table; the combination's later
        scopes, and every target of a scope, then take their problem
        from that pass.  Under the default prior and expectation model,
        a walked scope's problem over a target without NULLs is a
        :class:`WalkedProblem`: slices of the pass, a member of the
        target's :class:`ScopeBatch`, whose greedy loop solves every
        scope of the walk at once.  Any other scope is built from its
        own rows and solved alone.  The problem is the same in any
        order.
        """
        last, self._last = self._last, query.predicates
        columns = tuple(query.predicate_map)
        setup = self._setup
        if setup is not None and setup.columns == columns:
            if setup.predicates is None:
                return self._from_walk(setup, query)
            if setup.predicates == query.predicates:
                values = self._target_floats(query.target)[setup.rows]
                if np.array_equal(np.isnan(values), setup.nulls):
                    relation = self._relation_at(setup.rows, query)
                    return self._problem(query, relation, setup.family, 0)
                # This target keeps other rows of the scope.
                return self._alone(query, setup.rows)
        # Released first, so that two set-ups are never alive at once.
        self._setup = None
        if self._opens_walk(last, query):
            family = self._walk(query)
            if family is not None:
                self._setup = setup = CombinationSetup(columns, family)
                return self._from_walk(setup, query)
        return self._alone(query, keep=True)

    def _opens_walk(self, last: tuple | None, query: DataQuery) -> bool:
        """True when ``query`` is its combination's second scope and ``last`` its first.

        Only combinations of two or more columns are walked: a column's
        few large scopes cost per row, not per call.
        """
        predicates = query.predicate_map
        if len(predicates) < 2 or last is None or tuple(c for c, _ in last) != tuple(predicates):
            return False
        dims = [dim for dim in self._config.dimensions if dim in predicates]
        domains = []
        for dim in dims:
            _, decode, _ = self._column_codes(dim)
            domains.append([value for value in decode if value is not None][:2])
        scopes = [
            DataQuery.create(query.target, dict(zip(dims, values))).predicates
            for values in islice(product(*domains), 2)
        ]
        return scopes == [last, query.predicates]

    def _walk(self, query: DataQuery) -> ScopeFamily | None:
        """Every scope over ``query``'s predicate columns, from one pass over the table.

        None when ``query``'s target has NULLs: the scopes would not
        keep every row of their subsets.
        """
        target = self._target_floats(query.target)
        if np.isnan(target).any():
            return None
        dims = self._config.dimensions
        relation = SummarizationRelation(
            self._table,
            list(dims),
            query.target,
            codes={dim: self._column_codes(dim) for dim in dims},
            target_values=target,
        )
        return self._facts_of(relation, tuple(query.predicate_map))

    def _from_walk(
        self, setup: CombinationSetup, query: DataQuery
    ) -> SummarizationProblem | None:
        """``query``'s problem from the family of its combination's scopes."""
        family = setup.family
        scope = family.scope(tuple(query.predicate_map.values()))
        if scope is None:
            # No row holds these values: the subset is empty.
            return self._alone(query)
        rows = family.relation_rows(scope)
        if rows.size < self._min_subset_rows:
            return None
        batch = self._batch(setup, query.target)
        if batch is not None:
            if not family.num_facts(scope):
                return None
            return WalkedProblem(
                lambda: self._relation_at(rows, query),
                family,
                scope,
                Scope(dict(query.predicate_map)),
                query.describe(),
                self._config.max_facts_per_speech,
                self._default_prior(query.target),
                batch,
            )
        relation = self._relation_at(rows, query)
        if relation.num_rows < rows.size:
            # This target has NULLs in the scope.
            return self._alone(query, rows, relation)
        return self._problem(query, relation, family, scope)

    def _batch(self, setup: CombinationSetup, target: str) -> ScopeBatch | None:
        """The batch of the walked scopes of ``setup`` over ``target``, made on first need.

        None unless the problems take the default prior and expectation
        model, so that one loop solves them all alike, and ``target``
        has no NULL, so that each scope keeps all of its rows.
        """
        batches = setup.batches
        if target not in batches:
            values = self._target_floats(target)
            batches[target] = None
            defaults = self._prior is None and self._expectation_model is None
            if defaults and not np.isnan(values).any():
                family, prior = setup.family, self._default_prior(target).value
                batches[target] = ScopeBatch(lambda: family.segments(values, prior))
        return batches[target]

    def _alone(
        self,
        query: DataQuery,
        rows: np.ndarray | None = None,
        relation: SummarizationRelation | None = None,
        keep: bool = False,
    ) -> SummarizationProblem | None:
        """``query``'s problem from a pass over its own subset's rows.

        With ``keep``, the pass becomes the kept set-up.
        """
        if rows is None:
            rows = self._subset_rows(query.predicate_map)
        if rows.size < self._min_subset_rows:
            return None
        if relation is None:
            relation = self._relation_at(rows, query)
        columns = tuple(query.predicate_map)
        family = self._facts_of(relation, columns)
        if keep:
            nulls = np.isnan(self._target_floats(query.target)[rows])
            self._setup = CombinationSetup(columns, family, query.predicates, rows, nulls)
        return self._problem(query, relation, family, 0)

    def _facts_of(self, relation: SummarizationRelation, columns: tuple[str, ...]) -> ScopeFamily:
        """The facts of every scope over ``columns`` in ``relation``: one grouping pass."""
        return FactGenerator(
            relation,
            max_extra_dimensions=self._config.max_fact_dimensions,
            min_support=self._config.min_fact_support,
            group_cache=self._group_cache,
        ).generate(scope_columns=columns)

    def _problem(
        self,
        query: DataQuery,
        relation: SummarizationRelation,
        family: ScopeFamily,
        scope: int,
    ) -> SummarizationProblem | None:
        """``query``'s problem over ``relation``, its facts ``family``'s ``scope``."""
        generated = family.generated(scope, relation, Scope(dict(query.predicate_map)))
        if not generated.facts:
            return None
        index = generated.scope_index(relation)
        index.cache = family.cache(scope)
        kwargs = {}
        kwargs["prior"] = self._prior if self._prior is not None else self._default_prior(query.target)
        if self._expectation_model is not None:
            kwargs["expectation_model"] = self._expectation_model
        return SummarizationProblem(
            relation=relation,
            candidate_facts=generated.facts,
            max_facts=self._config.max_facts_per_speech,
            label=query.describe(),
            scope_index=index,
            **kwargs,
        )

    def _relation_at(self, rows: np.ndarray, query: DataQuery) -> SummarizationRelation:
        """The relation over the table's ``rows`` (``query``'s subset) summarizing its target.

        A predicate column holds one value on every row of a non-empty
        subset, so it is coded with that value alone: the relation then
        knows its census and its scope rows without a pass over the codes.
        """
        predicates = query.predicate_map
        codes = {}
        for dim in self._config.dimensions:
            dim_codes, decode, code_of = self._column_codes(dim)
            if dim in predicates and rows.size:
                # The table's value, which may differ in type (1.0 for 1).
                value = decode[code_of[predicates[dim]]]
                codes[dim] = (np.zeros(rows.size, dtype=np.int64), [value], {value: 0})
            else:
                codes[dim] = (dim_codes[rows], decode, code_of)
        return SummarizationRelation(
            self._subset_table,
            list(self._config.dimensions),
            query.target,
            codes=codes,
            rows=rows,
            target_values=self._target_floats(query.target)[rows],
        )

    def appended(self, table: Table, new_rows: Table) -> "ProblemGenerator":
        """This generator over ``table``: its own table with ``new_rows`` appended.

        The cached column codes and target floats are extended by the
        new rows instead of read again: old codes stay, and a value not
        seen before takes the next free code, exactly as factorizing the
        appended table would code it.  The default priors (whole-table
        target averages) are recomputed on demand.  Only serial maintenance
        (no parallel pool) gains: pickling drops the caches
        (:meth:`__getstate__`), so each pool worker factorizes its table
        again.
        """
        generator = ProblemGenerator(
            self._config,
            table,
            prior=self._prior,
            expectation_model=self._expectation_model,
            min_subset_rows=self._min_subset_rows,
        )
        generator._codes_cache = {
            column: extend_codes(codes, new_rows.column(column))
            for column, codes in self._codes_cache.items()
        }
        generator._target_cache = {
            target: np.concatenate((floats, new_rows.column(target).to_numpy()))
            for target, floats in self._target_cache.items()
        }
        generator._group_cache = self._group_cache
        return generator

    def _column_codes(self, column: str) -> DimensionCodes:
        """Integer codes of one table column, factorized once (cached)."""
        cached = self._codes_cache.get(column)
        if cached is None:
            cached = factorize(self._table.column(column))
            self._codes_cache[column] = cached
        return cached

    def _target_floats(self, target: str) -> np.ndarray:
        """A target column as floats, NaN for NULL (cached)."""
        cached = self._target_cache.get(target)
        if cached is None:
            cached = self._target_cache[target] = self._table.column(target).to_numpy()
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
