"""What a G-P/G-O solve derives once: the lattice, the speech's utility, copies.

G-P keeps one group lattice per group set and shares it between
problems (G-O, which runs G-B's loop, builds none); both take the
speech's utility from the greedy's final expectation state instead of
evaluating the speech again; and G-P retires no copies of generated
candidates, whose scopes are distinct.  None of this may change a
speech, a utility bit or a plan.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.algorithms import pruned_greedy
from repro.algorithms.pruned_greedy import OptimizedGreedySummarizer, PrunedGreedySummarizer
from repro.core.priors import ZeroPrior
from repro.core.problem import SummarizationProblem
from repro.datasets import available_datasets, load_dataset
from repro.facts.generation import CandidateFacts, FactGenerator
from repro.relational.column import Column
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.persistence import canonical_store_payload
from repro.system.preprocessor import Preprocessor, solve_query_chunk
from repro.system.problem_generator import ProblemGenerator
from repro.system.templates import SpeechRealizer

SUMMARIZERS = [PrunedGreedySummarizer, OptimizedGreedySummarizer]


def _config(spec, algorithm: str) -> SummarizationConfig:
    return SummarizationConfig.create(
        table=spec.key,
        dimensions=spec.dimensions,
        targets=spec.targets,
        max_query_length=2,
        algorithm=algorithm,
    )


def _problems(generator: ProblemGenerator, count: int) -> list[SummarizationProblem]:
    """About ``count`` problems spread over every target and scope size."""
    queries = list(generator.enumerate_queries())
    picked = queries[:: max(1, len(queries) // count)]
    problems = [generator.build_problem(query) for query in picked]
    return [problem for problem in problems if problem is not None]


def _assert_utility_is_the_evaluators(summarizer, problem: SummarizationProblem) -> None:
    result = summarizer.summarize(problem)
    evaluator = problem.evaluator()
    assert result.utility.hex() == evaluator.utility(result.speech).hex()
    assert result.scaled_utility.hex() == evaluator.scaled_utility(result.speech).hex()


# ----------------------------------------------------------------------
# The speech's utility from the greedy's own state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("summarizer_type", SUMMARIZERS)
@pytest.mark.parametrize("dataset", available_datasets())
def test_state_utility_is_bit_equal_to_the_evaluators(dataset, summarizer_type):
    data = load_dataset(dataset, num_rows=200)
    generator = ProblemGenerator(_config(data.spec, summarizer_type.name), data.table)
    summarizer = summarizer_type()
    for problem in _problems(generator, 60):
        _assert_utility_is_the_evaluators(summarizer, problem)


def _null_target_table() -> Table:
    """``cost`` is NULL on every fourth row and on most North rows."""
    rng = np.random.default_rng(9)
    regions = [str(v) for v in rng.choice(["North", "South", "East"], 80)]
    seasons = [str(v) for v in rng.choice(["Winter", "Summer", "Fall"], 80)]
    costs = [
        None if i % 4 == 0 or (region == "North" and i % 3) else float(c)
        for i, (region, c) in enumerate(zip(regions, rng.normal(50.0, 9.0, 80)))
    ]
    return Table(
        "trips",
        [
            Column.categorical("region", regions),
            Column.categorical("season", seasons),
            Column.numeric("cost", costs),
        ],
    )


@pytest.mark.parametrize("summarizer_type", SUMMARIZERS)
def test_state_utility_on_a_null_target_table(summarizer_type):
    config = SummarizationConfig.create(
        "trips",
        dimensions=("region", "season"),
        targets=("cost",),
        max_query_length=1,
        algorithm=summarizer_type.name,
    )
    generator = ProblemGenerator(config, _null_target_table())
    problems = _problems(generator, 100)
    assert any(problem.relation.num_rows < 80 for problem in problems)
    summarizer = summarizer_type()
    for problem in problems:
        _assert_utility_is_the_evaluators(summarizer, problem)


# ----------------------------------------------------------------------
# Copies
# ----------------------------------------------------------------------
def test_generated_candidates_have_no_copies(example_relation):
    generated = FactGenerator(example_relation, max_extra_dimensions=2).generate()
    index = generated.scope_index(example_relation)
    assert isinstance(index.facts, CandidateFacts)
    facts = list(index.facts)
    assert len(set(facts)) == len(facts)
    assert [index.copies_of(i) for i in range(index.num_facts)] == [
        [i] for i in range(index.num_facts)
    ]


@pytest.mark.parametrize("summarizer_type", SUMMARIZERS)
def test_a_hand_built_index_still_retires_copies(summarizer_type, example_relation):
    facts = list(FactGenerator(example_relation, max_extra_dimensions=2).generate().facts)
    # Every fact twice, the copies after all originals.
    problem = SummarizationProblem(
        example_relation, facts + facts, max_facts=len(facts), prior=ZeroPrior()
    )
    index = problem.index()
    assert index.copies_of(0) == [0, len(facts)]
    result = summarizer_type().summarize(problem)
    # A selected copy would count as a step without growing the speech.
    assert result.statistics.speeches_considered == result.speech.length > 1
    alone = summarizer_type().summarize(
        SummarizationProblem(example_relation, facts, max_facts=len(facts), prior=ZeroPrior())
    )
    assert result.speech.facts == alone.speech.facts
    assert result.utility == alone.utility


# ----------------------------------------------------------------------
# One lattice per group set
# ----------------------------------------------------------------------
def _same_group_set_problems() -> tuple[SummarizationProblem, SummarizationProblem]:
    """Two flights problems of different scopes over the same group set."""
    data = load_dataset("flights", num_rows=300)
    generator = ProblemGenerator(_config(data.spec, "G-P"), data.table)
    by_groups: dict[tuple, SummarizationProblem] = {}
    for query in generator.enumerate_queries():
        problem = generator.build_problem(query)
        if problem is None:
            continue
        key = tuple(problem.index().groups)
        if key in by_groups and len(key) > 2:
            return by_groups[key], problem
        by_groups[key] = problem
    raise AssertionError("no two problems share a group set")


def _lattice_state(lattice) -> tuple:
    return (
        lattice.groups,
        dict(lattice.ids),
        lattice.specializations,
        lattice.tie_rank,
        lattice.size,
    )


def test_problems_over_one_group_set_share_one_lattice():
    first, second = _same_group_set_problems()
    summarizer = PrunedGreedySummarizer()
    summarizer.summarize(first)
    lattice = summarizer._lattice(first.index())
    summarizer.summarize(second)
    assert summarizer._lattice(second.index()) is lattice


def test_plan_choice_leaves_the_shared_lattice_and_the_next_plan_unchanged():
    first, second = _same_group_set_problems()
    summarizer = PrunedGreedySummarizer()
    summarizer.summarize(first)
    lattice = summarizer._lattice(first.index())
    before = _lattice_state(lattice)

    result = summarizer.summarize(second)
    assert summarizer._lattice(second.index()) is lattice
    assert _lattice_state(lattice) == before
    fresh_second = _same_group_set_problems()[1]
    fresh_summarizer = PrunedGreedySummarizer()
    fresh = fresh_summarizer.summarize(fresh_second)
    assert summarizer._plan(second) == fresh_summarizer._plan(fresh_second)
    assert result.speech.facts == fresh.speech.facts
    assert result.utility.hex() == fresh.utility.hex()
    result.statistics.elapsed_seconds = fresh.statistics.elapsed_seconds = 0.0
    assert result.statistics == fresh.statistics


@pytest.mark.parametrize("algorithm", ["G-P", "G-O"])
def test_a_pickled_summarizer_produces_the_same_store(algorithm):
    data = load_dataset("flights", num_rows=200)
    config = _config(data.spec, algorithm)
    summarizer = (PrunedGreedySummarizer if algorithm == "G-P" else OptimizedGreedySummarizer)()
    # Solve some problems first, so G-P holds lattices (G-O builds none).
    for problem in _problems(ProblemGenerator(config, data.table), 20):
        summarizer.summarize(problem)
    assert bool(summarizer._lattices) is (algorithm == "G-P")
    copy = pickle.loads(pickle.dumps(summarizer))
    assert copy._lattices == {}

    stores = []
    for each in (summarizer, copy):
        store, _ = Preprocessor(config, each).run(ProblemGenerator(config, data.table))
        stores.append(canonical_store_payload(store, config))
    assert stores[0] == stores[1]


# ----------------------------------------------------------------------
# One plan per set of plan inputs
# ----------------------------------------------------------------------
def test_targets_of_one_scope_in_separate_chunks_choose_the_plan_once(monkeypatch):
    summarizer_cls = PrunedGreedySummarizer
    data = load_dataset("flights", num_rows=200)
    config = _config(data.spec, summarizer_cls.name)
    generator = ProblemGenerator(config, data.table)
    by_scope: dict[tuple, list] = {}
    for query in generator.enumerate_queries():
        by_scope.setdefault(query.predicates, []).append(query)
    pair = next(queries for queries in by_scope.values() if len(queries) >= 2)[:2]
    assert pair[0].target != pair[1].target

    summarizer = summarizer_cls()
    chosen = []
    choose = pruned_greedy.naive_plan
    monkeypatch.setattr(
        pruned_greedy, "naive_plan", lambda *args: chosen.append(args) or choose(*args)
    )
    context = (generator, summarizer, SpeechRealizer())
    outcomes = [solve_query_chunk(context, [query])[0] for query in pair]
    assert len(chosen) == 1

    fresh = [
        solve_query_chunk((generator, summarizer_cls(), SpeechRealizer()), [query])[0]
        for query in pair
    ]
    assert outcomes == fresh
