"""G-B, G-P and G-O select the same speeches, fact for fact and bit for bit.

G-O prices its plans by the one-pass gain kernel, under which the
trivial plan is always the cheapest, so it runs G-B's loop: it must do
G-B's fact evaluations and no bound evaluation.  G-P prunes, but only
facts whose gain is strictly below the best source gain, and its ties
go to the lowest fact id as G-B's ``argmax`` does, so it must select
G-B's facts in G-B's order.  Checked on every problem of the four
datasets at 300 rows and of a flights table with NULL dimensions, and
on the random tie and duplicate problems of ``test_pruning.py``.
"""

from __future__ import annotations

import pytest

from repro.algorithms.greedy import GreedySummarizer
from repro.algorithms.pruned_greedy import OptimizedGreedySummarizer, PrunedGreedySummarizer
from repro.core.priors import ZeroPrior
from repro.core.problem import SummarizationProblem
from tests.algorithms.test_per_problem import DATASETS, _generator
from tests.algorithms.test_pruning import _greedy_path_meets_tie, _interleaved_problem


def _assert_same_selection(problems) -> None:
    g_b, g_p, g_o = GreedySummarizer(), PrunedGreedySummarizer(), OptimizedGreedySummarizer()
    for problem in problems:
        base = g_b.summarize(problem)
        pruned, optimized = g_p.summarize(problem), g_o.summarize(problem)
        for result in (pruned, optimized):
            assert result.speech.facts == base.speech.facts
            assert result.utility.hex() == base.utility.hex()
            assert result.scaled_utility.hex() == base.scaled_utility.hex()
        work = optimized.statistics
        assert work.fact_evaluations == base.statistics.fact_evaluations
        assert work.speeches_considered == base.statistics.speeches_considered
        assert work.bound_evaluations == work.groups_pruned == 0


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_every_dataset_problem(dataset_name):
    generator = _generator(dataset_name)
    problems = [
        problem
        for problem in map(generator.build_problem, generator.enumerate_queries())
        if problem is not None
    ]
    assert len(problems) > 100
    _assert_same_selection(problems)


@pytest.mark.parametrize("seed", range(24))
def test_random_tie_and_duplicate_problems(seed):
    _assert_same_selection([_interleaved_problem(seed)])


def test_interleaved_example_with_ties(example_facts, example_relation):
    facts = example_facts.facts[1::2] + example_facts.facts[::2]
    problem = SummarizationProblem(example_relation, facts, max_facts=4, prior=ZeroPrior())
    assert _greedy_path_meets_tie(problem)
    _assert_same_selection([problem])


def test_duplicated_example_facts(example_facts, example_relation):
    facts = list(example_facts.facts) * 2
    problem = SummarizationProblem(example_relation, facts, max_facts=4, prior=ZeroPrior())
    _assert_same_selection([problem])
