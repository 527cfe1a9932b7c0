"""One problem set-up per predicate scope (``ScopeSetup``).

The targets of a predicate scope summarize the same data subset, so
``solve_query_chunk`` builds the subset, the grouping pass, the fact
structure and the CSR skeleton once per scope and only the target's
values per query.  Every outcome must equal the query solved on its
own, down to the bits of its utilities and its fact-evaluation count;
a target whose NULLs fall on other rows is built from scratch, and a
summarizer that carries state across problems keeps its call order.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.algorithms.registry import make_summarizer
from repro.datasets import available_datasets, load_dataset
from repro.facts.generation import FactGenerator
from repro.relational.column import Column
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.preprocessor import _solve_query, scope_groups, solve_query_chunk
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


def _mixed_chunks(queries: list[DataQuery], scopes: int) -> list[list[DataQuery]]:
    """Every target of the first and last ``scopes`` scopes, in shuffled chunks of 7.

    Taken scope by scope, so a chunk holds several targets of a scope
    and the scopes on both sides of it.
    """
    groups = scope_groups(queries)
    picked = [queries[i] for positions in groups[:scopes] + groups[-scopes:] for i in positions]
    chunks = [picked[i : i + 7] for i in range(0, len(picked), 7)]
    for chunk in chunks:
        random.Random(0).shuffle(chunk)
    return chunks


def _solo(generator, summarizer, chunk):
    realizer = SpeechRealizer()
    return [_solve_query(generator, summarizer, realizer, query) for query in chunk]


@pytest.mark.parametrize("algorithm", ["G-B", "G-L", "G-P", "G-O"])
@pytest.mark.parametrize("dataset", available_datasets())
def test_chunks_match_queries_solved_alone(dataset, algorithm):
    data = load_dataset(dataset, num_rows=200)
    config = _config(data.spec, algorithm)
    queries = list(ProblemGenerator(config, data.table).enumerate_queries())
    chunks = _mixed_chunks(queries, scopes=6)
    # Chunks mix scopes, and targets within a scope.
    assert any(len(scope_groups(chunk)) > 1 for chunk in chunks)
    if len(data.spec.targets) > 1:
        assert any(max(map(len, scope_groups(chunk))) > 1 for chunk in chunks)
    summarizer = make_summarizer(algorithm)
    context = (ProblemGenerator(config, data.table), summarizer, SpeechRealizer())
    alone = ProblemGenerator(config, data.table)
    for chunk in chunks:
        assert solve_query_chunk(context, chunk) == _solo(alone, summarizer, chunk)


def test_random_keeps_its_call_order():
    data = load_dataset("flights", num_rows=200)
    config = _config(data.spec, "RANDOM")
    queries = list(ProblemGenerator(config, data.table).enumerate_queries())
    chunk = [query for chunk in _mixed_chunks(queries, scopes=4) for query in chunk]
    summarizer = make_summarizer("RANDOM", seed=3)
    context = (ProblemGenerator(config, data.table), summarizer, SpeechRealizer())
    alone = ProblemGenerator(config, data.table)
    expected = _solo(alone, make_summarizer("RANDOM", seed=3), chunk)
    assert solve_query_chunk(context, chunk) == expected


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


def test_a_target_with_other_nulls_is_built_alone(monkeypatch):
    table = _null_table()
    config = SummarizationConfig.create(
        "trips",
        dimensions=("region", "season"),
        targets=("delay", "cost"),
        max_query_length=1,
        algorithm="G-O",
    )
    generations = []
    generate = FactGenerator.generate

    def counted(self, base_scope=None):
        generations.append(dict(base_scope or {}))
        return generate(self, base_scope)

    queries = list(ProblemGenerator(config, table).enumerate_queries())
    summarizer = make_summarizer("G-O")
    expected = _solo(ProblemGenerator(config, table), summarizer, queries)
    monkeypatch.setattr(FactGenerator, "generate", counted)
    context = (ProblemGenerator(config, table), summarizer, SpeechRealizer())
    outcomes = solve_query_chunk(context, queries)
    assert outcomes == expected
    # Where the scope holds a NULL cost, both targets generate facts;
    # every other scope generates them once.
    built = [tuple(sorted(scope.items())) for scope in generations]
    with_nulls = {
        scope
        for scope in built
        for row in table.iter_rows()
        if row["cost"] is None and all(row[column] == value for column, value in scope)
    }
    assert (("region", "North"),) in with_nulls and (("region", "South"),) not in with_nulls
    assert sorted(built) == sorted([*set(built), *with_nulls])

