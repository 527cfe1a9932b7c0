"""A walked scope's problem read off its target's batch is the problem solved alone.

Walking a dimension combination's scopes in enumeration order, the
problem generator makes each walked problem a member of its target's
``ScopeBatch``: the first member to be solved runs one greedy loop over
every scope of the combination, and each member reads its speech, its
fact evaluations and its scores off that loop.  Every member must get
the selection of the same problem solved alone (a batch of one): the
same facts in the same order, the same ``utility`` and
``scaled_utility`` bits and the same fact evaluations, under G-O and
under G-B with early stop on and off.  The segmented loop itself must
select, scope by scope, what the loop selects on each scope alone, bit
for bit (Hypothesis).
"""

from __future__ import annotations

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import greedy
from repro.algorithms.greedy import GreedySummarizer, greedy_loop
from repro.algorithms.pruned_greedy import OptimizedGreedySummarizer, PrunedGreedySummarizer
from repro.core.kernel import FactScopeIndex, ScopeSegments
from repro.core.model import SummarizationRelation
from repro.datasets import load_dataset
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.problem_generator import ProblemGenerator
from repro.system.speech_store import SpeechStore
from repro.system.updates import IncrementalMaintainer
from tests.system.test_scope_families import (
    _SMALL_CONFIG,
    _SMALL_TABLE,
    APPEND_BASE_SEED,
    APPEND_ROWS_SEED,
)
from tests.system.test_store_golden import with_null_dimensions

SUMMARIZERS = {
    "G-O": OptimizedGreedySummarizer,
    "G-B": GreedySummarizer,
    "G-B without early stop": lambda: GreedySummarizer(allow_early_stop=False),
}


def _config(spec) -> SummarizationConfig:
    return SummarizationConfig.create(
        table=spec.key,
        dimensions=spec.dimensions,
        targets=spec.targets,
        max_query_length=2,
    )


def _datasets():
    for name in ("flights", "stackoverflow", "acs", "primaries"):
        yield pytest.param(lambda name=name: load_dataset(name, num_rows=300), id=name)
    yield pytest.param(
        lambda: with_null_dimensions(load_dataset("flights", num_rows=300)),
        id="flights-null-dimensions",
    )


def _walked(config, table) -> list:
    """``(query, problem)`` of every batch member, built in enumeration order."""
    generator = ProblemGenerator(config, table)
    built = ((query, generator.build_problem(query)) for query in generator.enumerate_queries())
    return [(query, problem) for query, problem in built if problem and problem.batch]


def _alone(config, table, queries) -> list:
    """Each query's problem, every scope's targets on a generator of their own."""
    problems = []
    for _, scope in groupby(queries, key=lambda query: query.predicates):
        generator = ProblemGenerator(config, table)
        problems.extend(generator.build_problem(query) for query in scope)
    return problems


def _assert_same_result(batched, alone) -> None:
    assert batched.speech.facts == alone.speech.facts
    assert batched.utility.hex() == alone.utility.hex()
    assert batched.scaled_utility.hex() == alone.scaled_utility.hex()
    assert batched.statistics.fact_evaluations == alone.statistics.fact_evaluations
    assert batched.statistics.speeches_considered == alone.statistics.speeches_considered


@pytest.mark.parametrize("name", SUMMARIZERS)
@pytest.mark.parametrize("dataset", _datasets())
def test_batch_members_match_the_problems_solved_alone(dataset, name):
    data = dataset()
    config = _config(data.spec)
    walked = _walked(config, data.table)
    assert len(walked) > 100
    alone = _alone(config, data.table, [query for query, _ in walked])
    assert all(problem.batch is None for problem in alone)
    summarizer = SUMMARIZERS[name]()
    for (_, member), problem in zip(walked, alone):
        _assert_same_result(summarizer.summarize(member), summarizer.summarize(problem))


def _recording(init, built: list):
    def recorded(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    return recorded


@pytest.fixture
def loops(monkeypatch) -> list[int]:
    """The number of scopes of every greedy loop run."""
    recorded = []
    real = greedy.greedy_loop

    def counted(segments, *args):
        recorded.append(segments.fact_starts.size - 1)
        return real(segments, *args)

    monkeypatch.setattr(greedy, "greedy_loop", counted)
    return recorded


def test_members_are_read_off_one_loop_and_build_nothing(loops, monkeypatch):
    """The first member of a batch runs the loop for all of them; no member
    builds its relation or scope index to be solved, and a target with
    NULLs (``cost``) makes no batch."""
    walked = [problem for _, problem in _walked(_SMALL_CONFIG, _SMALL_TABLE)]
    built = []
    for owner in (SummarizationRelation, FactScopeIndex):
        monkeypatch.setattr(owner, "__init__", _recording(owner.__init__, built))
    summarizer = OptimizedGreedySummarizer()
    for problem in walked:
        summarizer.summarize(problem)
    assert built == []
    batches = {id(problem.batch[0]) for problem in walked}
    assert len(loops) == len(batches) == 3
    assert min(loops) > 1
    assert {problem.label.partition(" for ")[0] for problem in walked} == {"delay"}
    assert len(walked) > 10
    for problem in walked:
        assert len(problem.candidate_facts) == problem.index().num_facts


def test_g_p_solves_walked_problems_alone(loops):
    walked = [problem for _, problem in _walked(_SMALL_CONFIG, _SMALL_TABLE)]
    summarizer = PrunedGreedySummarizer()
    for problem in walked:
        summarizer.summarize(problem)
    assert set(loops) <= {1}


def test_no_one_row_append_forms_a_batch(loops):
    """The work, not the clock: each one-row append of the ``append``
    workload's data solves every affected problem as a batch of one."""
    base = load_dataset("flights", num_rows=5000, seed=APPEND_BASE_SEED)
    maintainer = IncrementalMaintainer(_config(base.spec), base.table)
    appended = load_dataset("flights", num_rows=15, seed=APPEND_ROWS_SEED).table
    names = appended.column_names
    types = [column.ctype for column in appended.columns]
    solved = 0
    for row in appended.to_dicts():
        batch = Table.from_rows(appended.name, names, types, [[row[name] for name in names]])
        solved += maintainer.maintain(batch, SpeechStore()).rebuilt_speeches
    assert solved > 15 * 40
    assert len(loops) == solved
    assert set(loops) == {1}


# ----------------------------------------------------------------------
# The segmented loop against the loop on each segment alone
# ----------------------------------------------------------------------
@st.composite
def _segment(draw, kind: str, prior: float):
    """One scope: its rows' target values and its facts' rows and values.

    ``kind`` forces a one-fact scope, a scope on whose rows the prior
    ``prior`` is exact (no fact gains), or a scope with a duplicated
    fact; "any" draws freely.
    """
    size = draw(st.integers(min_value=1, max_value=12))
    target = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0, 1e-3, 3.25]),
            min_size=size,
            max_size=size,
        )
    )
    if kind == "zero":
        target = [prior] * size
    num_facts = 1 if kind == "one" else draw(st.integers(min_value=1, max_value=6))
    facts = []
    for _ in range(num_facts):
        rows = sorted(draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size)))
        value = draw(st.sampled_from([0.0, 1.0, 2.5, 4.0]))
        facts.append((rows, value))
    if kind == "duplicate":
        facts.append(facts[0])
    return target, facts


@st.composite
def _segmented_problem(draw):
    """Scopes and a prior: a one-fact, a no-gain and a duplicate scope, and up to five more."""
    prior = draw(st.sampled_from([1.0, 0.25, 3.0]))
    kinds = ["one", "zero", "duplicate"] + ["any"] * draw(st.integers(0, 5))
    kinds = draw(st.permutations(kinds))
    return [draw(_segment(kind, prior)) for kind in kinds], prior


def _segments(scopes, prior: float) -> ScopeSegments:
    """Lay out ``scopes`` (from :func:`_segment`) as one batch, scope by scope."""
    fact_starts, row_counts, supports, rows, values, target = [0], [], [], [], [], []
    for scope_target, facts in scopes:
        start = len(target)
        for fact_rows, value in facts:
            rows.extend(start + row for row in fact_rows)
            supports.append(len(fact_rows))
            values.append(value)
        target.extend(scope_target)
        fact_starts.append(len(values))
        row_counts.append(len(scope_target))
    target = np.array(target)
    rows = np.array(rows, dtype=np.intp)
    values = np.array(values)
    supports = np.array(supports, dtype=np.intp)
    offsets = np.zeros(supports.size + 1, dtype=np.intp)
    np.cumsum(supports, out=offsets[1:])
    fact_ids = np.repeat(np.arange(supports.size), supports)
    return ScopeSegments(
        np.array(fact_starts),
        np.array(row_counts),
        offsets,
        rows,
        fact_ids,
        np.abs(values[fact_ids] - target[rows]),
        values,
        np.abs(prior - target),
    )


@given(
    problem=_segmented_problem(),
    max_facts=st.integers(min_value=1, max_value=4),
    allow_early_stop=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_segmented_loop_equals_a_loop_per_segment(problem, max_facts, allow_early_stop):
    scopes, prior = problem
    together = greedy_loop(_segments(scopes, prior), max_facts, allow_early_stop)
    for slot, scope in enumerate(scopes):
        alone = greedy_loop(_segments([scope], prior), max_facts, allow_early_stop)
        assert together.chosen[slot] == alone.chosen[0]
        assert [v.hex() for v in together.values[slot]] == [v.hex() for v in alone.values[0]]
        assert together.evaluations(slot) == alone.evaluations(0)
        assert together.priors[slot].hex() == alone.priors[0].hex()
        assert together.deviations[slot].hex() == alone.deviations[0].hex()
