"""One problem set-up per dimension combination (``CombinationSetup``).

The targets of a predicate scope summarize the same data subset, and
queries are enumerated scope-major, so a ``ProblemGenerator`` keeps the
grouping pass of the last scope it built and takes the scope's next
target's problem from it; walking a combination's scopes in order, it
lays out all of them in one pass (see ``test_scope_families.py``).
Every outcome must equal the query solved on a fresh generator, down to
the bits of its utilities and its fact-evaluation count; a target whose
NULLs fall on other rows is built from its own rows, and a summarizer
that carries state across problems keeps its call order.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np
import pytest

from repro.algorithms.registry import make_summarizer
from repro.datasets import available_datasets, load_dataset
from repro.facts.generation import FactGenerator
from repro.relational.column import Column
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.preprocessor import _solve_query, solve_query_chunk
from repro.system.problem_generator import ProblemGenerator
from repro.system.queries import DataQuery
from repro.system.templates import SpeechRealizer


def _config(spec, algorithm: str) -> SummarizationConfig:
    return SummarizationConfig.create(
        table=spec.key,
        dimensions=spec.dimensions,
        targets=spec.targets,
        max_query_length=2,
        algorithm=algorithm,
    )


def _every_fifth_scope(queries: list[DataQuery]) -> list[DataQuery]:
    """Every target of every fifth predicate scope, in enumeration order.

    A stride keeps the test short and still spans the empty scope and
    both query lengths; each scope's targets stay back to back.
    """
    runs = [list(run) for _, run in groupby(queries, key=lambda query: query.predicates)]
    return [query for run in runs[::5] for query in run]


def _fresh(config, table, summarizer, queries):
    """Each query solved on a generator that has built nothing before it."""
    realizer = SpeechRealizer()
    return [
        _solve_query(ProblemGenerator(config, table), summarizer, realizer, query)
        for query in queries
    ]


@pytest.mark.parametrize("algorithm", ["G-B", "G-P", "G-O"])
@pytest.mark.parametrize("dataset", available_datasets())
def test_queries_in_order_match_queries_solved_fresh(dataset, algorithm):
    data = load_dataset(dataset, num_rows=200)
    config = _config(data.spec, algorithm)
    generator = ProblemGenerator(config, data.table)
    queries = _every_fifth_scope(list(generator.enumerate_queries()))
    summarizer = make_summarizer(algorithm)
    in_order = solve_query_chunk((generator, summarizer, SpeechRealizer()), queries)
    assert sum(outcome is not None for outcome in in_order) > len(queries) // 2
    assert in_order == _fresh(config, data.table, summarizer, queries)


def test_random_keeps_its_call_order():
    data = load_dataset("flights", num_rows=200)
    config = _config(data.spec, "RANDOM")
    generator = ProblemGenerator(config, data.table)
    queries = _every_fifth_scope(list(generator.enumerate_queries()))
    context = (generator, make_summarizer("RANDOM", seed=3), SpeechRealizer())
    expected = _fresh(config, data.table, make_summarizer("RANDOM", seed=3), queries)
    assert solve_query_chunk(context, queries) == expected


def _null_table() -> Table:
    """``cost`` is NULL on some North rows; ``delay`` never is."""
    rng = np.random.default_rng(5)
    regions = [str(v) for v in rng.choice(["North", "South", "East"], 60)]
    seasons = [str(v) for v in rng.choice(["Winter", "Summer"], 60)]
    costs = [
        None if region == "North" and i % 3 == 0 else float(c)
        for i, (region, c) in enumerate(zip(regions, rng.normal(50.0, 9.0, 60)))
    ]
    return Table(
        "trips",
        [
            Column.categorical("region", regions),
            Column.categorical("season", seasons),
            Column.numeric("delay", list(rng.normal(20.0, 6.0, 60))),
            Column.numeric("cost", costs),
        ],
    )


def test_a_target_with_other_nulls_is_built_from_scratch(monkeypatch):
    table = _null_table()
    config = SummarizationConfig.create(
        "trips",
        dimensions=("region", "season"),
        targets=("delay", "cost"),
        max_query_length=2,
        algorithm="G-O",
    )
    alone, families = [], []
    generate = FactGenerator.generate

    def counted(self, base_scope=None, **kwargs):
        family = generate(self, base_scope, **kwargs)
        if family.keys is not None:
            families.append(kwargs["scope_columns"])
        else:
            # A pass over one scope's rows codes its predicates with one value.
            scope = {
                column: self.relation.dimension_codes(column)[1][0]
                for column in kwargs["scope_columns"]
            }
            alone.append(tuple(sorted(scope.items())))
        return family

    generator = ProblemGenerator(config, table)
    queries = list(generator.enumerate_queries())
    summarizer = make_summarizer("G-O")
    expected = _fresh(config, table, summarizer, queries)
    monkeypatch.setattr(FactGenerator, "generate", counted)
    outcomes = solve_query_chunk((generator, summarizer, SpeechRealizer()), queries)
    assert outcomes == expected
    # The (region, season) scopes after the first come from one pass
    # over the table; every other scope gets a pass of its own, and
    # where it holds a NULL cost, the second target (cost) one more.
    assert families == [("region", "season")]
    scopes = [query.predicates for query in queries[:: len(config.targets)]]
    viable = [
        scope
        for scope in scopes
        if sum(all(row[column] == value for column, value in scope) for row in table.iter_rows())
        >= 2
    ]
    walked = [scope for scope in viable if len(scope) == 2][1:]
    with_nulls = [
        scope
        for scope in viable
        if any(
            row["cost"] is None and all(row[column] == value for column, value in scope)
            for row in table.iter_rows()
        )
    ]
    assert (("region", "North"),) in with_nulls and (("region", "South"),) not in with_nulls
    assert any(scope in walked for scope in with_nulls)
    own = [scope for scope in viable if scope not in walked]
    assert sorted(alone) == sorted([*own, *with_nulls])
