"""Tests for the lazy-greedy summarizer ("G-L") and greedy-path parity.

Lazy greedy is an execution strategy for Algorithm 2, not a different
algorithm: by submodularity (Theorem 1) stale gains upper-bound current
gains, so the fresh top of the bound heap is the true argmax.  The tests
assert selection parity with both greedy execution paths on the running
example and on randomized problems.
"""

from __future__ import annotations

import pytest

from repro.algorithms.greedy import GreedySummarizer, PerFactGreedySummarizer
from repro.algorithms.lazy_greedy import LazyGreedySummarizer
from repro.algorithms.registry import make_summarizer
from repro.core.priors import ZeroPrior
from repro.core.problem import SummarizationProblem

from tests.core.test_kernel import random_problem


class TestLazyGreedyParity:
    def test_matches_greedy_on_example(self, example_problem):
        eager = GreedySummarizer().summarize(example_problem)
        lazy = LazyGreedySummarizer().summarize(example_problem)
        assert lazy.speech == eager.speech
        assert lazy.utility == pytest.approx(eager.utility)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_matches_greedy_on_random_problems(self, seed):
        problem = random_problem(seed, max_facts=4)
        eager = GreedySummarizer().summarize(problem)
        lazy = LazyGreedySummarizer().summarize(problem)
        assert lazy.speech == eager.speech

    @pytest.mark.parametrize("allow_early_stop", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_kernel_greedy_matches_reference_greedy(self, seed, allow_early_stop):
        """The vectorized greedy path must select the same speech as the
        per-fact oracle (same tie-breaking by candidate index).  Each
        problem has 60 candidates whose gains reach zero after ~40
        picks, so without early stop both paths keep picking zero-gain
        facts."""
        problem = random_problem(seed, max_facts=60)
        kernel = GreedySummarizer(allow_early_stop).summarize(problem)
        reference = PerFactGreedySummarizer(allow_early_stop).summarize(problem)
        assert kernel.speech == reference.speech
        assert kernel.utility == pytest.approx(reference.utility)
        assert (
            kernel.statistics.speeches_considered
            == reference.statistics.speeches_considered
        )
        assert (
            kernel.statistics.fact_evaluations
            == reference.statistics.fact_evaluations
        )

    def test_lazy_saves_fact_evaluations(self):
        problem = random_problem(11, max_facts=4)
        eager = GreedySummarizer().summarize(problem)
        lazy = LazyGreedySummarizer().summarize(problem)
        assert lazy.speech == eager.speech
        assert (
            lazy.statistics.fact_evaluations < eager.statistics.fact_evaluations
        )


class TestLazyGreedyBehaviour:
    def test_registered_in_registry(self):
        summarizer = make_summarizer("G-L")
        assert isinstance(summarizer, LazyGreedySummarizer)
        assert summarizer.name == "G-L"

    def test_respects_speech_length(self, example_problem):
        result = LazyGreedySummarizer().summarize(example_problem)
        assert result.speech.length <= example_problem.max_facts

    def test_early_stop_when_no_gain(self, example_relation):
        facts = [
            example_relation.make_fact({"season": "Winter"}),
            example_relation.make_fact({"season": "Winter"}),
        ]
        problem = SummarizationProblem(
            relation=example_relation,
            candidate_facts=facts,
            max_facts=3,
            prior=ZeroPrior(),
        )
        result = LazyGreedySummarizer().summarize(problem)
        assert result.speech.length == 1

    def test_early_stop_can_be_disabled(self, example_relation):
        facts = [
            example_relation.make_fact({"season": "Winter"}),
            example_relation.make_fact({"region": "East"}),
        ]
        problem = SummarizationProblem(
            relation=example_relation,
            candidate_facts=facts,
            max_facts=2,
            prior=ZeroPrior(),
        )
        result = LazyGreedySummarizer(allow_early_stop=False).summarize(problem)
        assert result.speech.length == 2

    def test_utility_matches_evaluator(self, example_problem):
        result = LazyGreedySummarizer().summarize(example_problem)
        evaluator = example_problem.evaluator()
        assert result.utility == pytest.approx(evaluator.utility(result.speech))
