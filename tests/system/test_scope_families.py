"""Scope families: a problem taken from a walked family is the problem built alone.

Asked for the second scope of a dimension combination of two or more
columns right after its first, a ``ProblemGenerator`` lays out every
scope of the combination in one grouping pass over the table
(``FactGenerator.generate(scope_columns=...)``).  The combination's
later scopes, and every target of each scope, then take their problems
from slices of that pass.  Each such problem must equal the problem a
fresh generator builds from the scope's own rows, bit for bit: the
candidate values and supports, every built fact, the scope index's
arrays and groups, and the relation's rows and target values.
"""

from __future__ import annotations

from itertools import combinations, groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.facts.generation import FactGenerator
from repro.relational.column import Column
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.problem_generator import ProblemGenerator
from repro.system.speech_store import SpeechStore
from repro.system.updates import IncrementalMaintainer
from tests.system.test_store_golden import with_null_dimensions


def _config(spec) -> SummarizationConfig:
    return SummarizationConfig.create(
        table=spec.key,
        dimensions=spec.dimensions,
        targets=spec.targets,
        max_query_length=2,
    )


@pytest.fixture
def passes(monkeypatch) -> list[tuple[int, bool]]:
    """Every grouping pass: its relation's row count, and whether it split scopes."""
    recorded = []
    generate = FactGenerator.generate

    def counted(self, base_scope=None, **kwargs):
        result = generate(self, base_scope, **kwargs)
        recorded.append((self.relation.num_rows, getattr(result, "keys", None) is not None))
        return result

    monkeypatch.setattr(FactGenerator, "generate", counted)
    return recorded


def _built_alone(config, table, queries) -> list:
    """Each query's problem, every scope's targets on a generator of their own."""
    problems = []
    for _, scope in groupby(queries, key=lambda query: query.predicates):
        generator = ProblemGenerator(config, table)
        problems.extend(generator.build_problem(query) for query in scope)
    return problems


def _same(array: np.ndarray, other: np.ndarray) -> bool:
    return array.dtype == other.dtype and array.tobytes() == other.tobytes()


def assert_same_problem(served, alone) -> None:
    assert (served is None) == (alone is None)
    if served is None:
        return
    assert (served.label, served.max_facts) == (alone.label, alone.max_facts)
    assert served.prior.describe() == alone.prior.describe()
    facts, expected = served.candidate_facts, alone.candidate_facts
    assert _same(facts.values, expected.values)
    assert _same(facts.supports, expected.supports)
    # Fact values are floats of ``values``, so equal facts are equal bits.
    assert list(facts) == list(expected)
    index, other = served.index(), alone.index()
    for name in ("row_indices", "offsets", "fact_ids", "fact_errors"):
        assert _same(getattr(index, name), getattr(other, name)), name
    assert list(index.groups) == list(other.groups)
    assert all(_same(ids, other.groups[columns]) for columns, ids in index.groups.items())
    assert served.relation.table == alone.relation.table
    assert _same(served.relation.target_values, alone.relation.target_values)


def _datasets():
    for name in ("flights", "stackoverflow", "acs", "primaries"):
        yield pytest.param(lambda name=name: load_dataset(name, num_rows=300), id=name)
    yield pytest.param(
        lambda: with_null_dimensions(load_dataset("flights", num_rows=300)),
        id="flights-null-dimensions",
    )


@pytest.mark.parametrize("dataset", _datasets())
def test_walked_families_serve_the_problems_built_alone(dataset, passes):
    data = dataset()
    config = _config(data.spec)
    generator = ProblemGenerator(config, data.table)
    queries = list(generator.enumerate_queries())
    built = [(query, generator.build_problem(query)) for query in queries]
    walked = [(query, problem) for query, problem in built if len(query.predicates) >= 2]
    # One pass over the table per combination, whose later scopes come from it.
    families = [rows for rows, split in passes if split]
    walks = [
        dims
        for dims in combinations(config.dimensions, 2)
        if np.prod([len(data.table.column(dim).distinct_values()) for dim in dims]) >= 2
    ]
    assert families == [data.table.num_rows] * len(walks)
    assert len(passes) < len(walked)

    alone = _built_alone(config, data.table, [query for query, _ in walked])
    assert sum(problem is not None for problem in alone) > len(alone) // 2
    for (_, served), own in zip(walked, alone):
        assert_same_problem(served, own)


def _small_table() -> Table:
    """Three dimensions; ``cost`` is NULL on some North rows, ``delay`` never."""
    rng = np.random.default_rng(11)
    regions = [str(v) for v in rng.choice(["North", "South", "East"], 48)]
    seasons = [str(v) for v in rng.choice(["Winter", "Summer"], 48)]
    times = [str(v) for v in rng.choice(["Day", "Night"], 48)]
    costs = [
        None if region == "North" and i % 4 == 0 else float(c)
        for i, (region, c) in enumerate(zip(regions, rng.normal(50.0, 9.0, 48)))
    ]
    return Table(
        "trips",
        [
            Column.categorical("region", regions),
            Column.categorical("season", seasons),
            Column.categorical("time", times),
            Column.numeric("delay", list(rng.normal(20.0, 6.0, 48))),
            Column.numeric("cost", costs),
        ],
    )


_SMALL_TABLE = _small_table()
_SMALL_CONFIG = SummarizationConfig.create(
    "trips", dimensions=("region", "season", "time"), targets=("delay", "cost"), max_query_length=2
)
_SMALL_QUERIES = list(ProblemGenerator(_SMALL_CONFIG, _SMALL_TABLE).enumerate_queries())
_SMALL_ALONE = {
    query: ProblemGenerator(_SMALL_CONFIG, _SMALL_TABLE).build_problem(query)
    for query in _SMALL_QUERIES
}


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_order_of_the_queries_yields_the_same_problems(data):
    """Runs of the enumeration, cut anywhere, shuffled and some reversed,
    so walks start, break off and resume in every way: each problem is
    still the one its query builds on a fresh generator."""
    cuts = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=len(_SMALL_QUERIES) - 1))))
    runs = [
        _SMALL_QUERIES[start:stop]
        for start, stop in zip([0, *cuts], [*cuts, len(_SMALL_QUERIES)])
    ]
    order = data.draw(st.permutations(runs))
    flips = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    generator = ProblemGenerator(_SMALL_CONFIG, _SMALL_TABLE)
    for run, flip in zip(order, flips):
        for query in reversed(run) if flip else run:
            assert_same_problem(generator.build_problem(query), _SMALL_ALONE[query])


def test_the_enumeration_order_walks_every_combination(passes):
    """The property's orders include the enumeration itself: three
    walks, one per pair of columns, and ``cost``'s scopes with NULLs
    built alone."""
    generator = ProblemGenerator(_SMALL_CONFIG, _SMALL_TABLE)
    for query in _SMALL_QUERIES:
        assert_same_problem(generator.build_problem(query), _SMALL_ALONE[query])
    assert [rows for rows, split in passes if split] == [_SMALL_TABLE.num_rows] * 3


#: The ``voice_e2e`` ``append`` workload's data: its table and the rows it appends.
APPEND_BASE_SEED, APPEND_ROWS_SEED = 20210318, 20210319


def test_a_one_row_append_builds_no_family(passes):
    """The work, not the clock: one grouping pass per viable affected scope.

    A one-row append affects one scope per combination of up to two
    columns: 22 scopes, 44 queries, each scope's second target taken
    from its first target's pass.  The affected scopes of a
    combination are never its first two in enumeration order back to
    back, so no family over the table is built (building one would cost
    far more than the few scopes it serves).
    """
    base = load_dataset("flights", num_rows=5000, seed=APPEND_BASE_SEED)
    config = _config(base.spec)
    maintainer = IncrementalMaintainer(config, base.table)
    appended = load_dataset("flights", num_rows=15, seed=APPEND_ROWS_SEED).table
    names = appended.column_names
    types = [column.ctype for column in appended.columns]
    everything_viable = 0
    for row in appended.to_dicts():
        passes.clear()
        batch = Table.from_rows(appended.name, names, types, [[row[name] for name in names]])
        report = maintainer.maintain(batch, SpeechStore())
        rebuilt_scopes = {label.partition(" for ")[2] for label in report.rebuilt_labels}
        assert not any(split for _, split in passes)
        assert len(passes) == len(rebuilt_scopes)
        assert report.affected_queries == 44
        everything_viable += report.rebuilt_speeches == 44
    assert everything_viable
