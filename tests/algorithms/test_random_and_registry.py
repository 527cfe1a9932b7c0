"""Unit tests for the random baseline and the algorithm registry."""

import pytest

from repro.algorithms.exact import ExactSummarizer
from repro.algorithms.greedy import GreedySummarizer
from repro.algorithms.pruned_greedy import OptimizedGreedySummarizer, PrunedGreedySummarizer
from repro.algorithms.random_baseline import RandomSummarizer
from repro.algorithms.registry import available_summarizers, make_summarizer
from repro.algorithms.sampling_baseline import SamplingBaselineSummarizer


class TestRandomSummarizer:
    def test_selects_requested_number_of_facts(self, example_problem):
        result = RandomSummarizer(seed=1).summarize(example_problem)
        assert result.speech.length == example_problem.max_facts
        assert result.algorithm == "RANDOM"

    def test_deterministic_with_seed(self, example_problem):
        a = RandomSummarizer(seed=42).summarize(example_problem)
        b = RandomSummarizer(seed=42).summarize(example_problem)
        assert a.speech == b.speech

    def test_sample_speeches(self, example_problem):
        speeches = RandomSummarizer(seed=3).sample_speeches(example_problem, 10)
        assert len(speeches) == 10
        assert all(s.length == example_problem.max_facts for s in speeches)
        # Random pools should contain diverse speeches.
        assert len(set(speeches)) > 1

    def test_never_beats_exact(self, example_problem):
        exact = ExactSummarizer().summarize(example_problem)
        evaluator = example_problem.evaluator()
        for speech in RandomSummarizer(seed=7).sample_speeches(example_problem, 20):
            assert evaluator.utility(speech) <= exact.utility + 1e-9


class TestRegistry:
    def test_available_names(self):
        assert set(available_summarizers()) == {
            "E", "G-B", "G-P", "G-O", "SAMPLING", "RANDOM",
        }

    @pytest.mark.parametrize(
        "name, expected_type",
        [
            ("E", ExactSummarizer),
            ("G-B", GreedySummarizer),
            ("G-P", PrunedGreedySummarizer),
            ("G-O", OptimizedGreedySummarizer),
            ("SAMPLING", SamplingBaselineSummarizer),
            ("RANDOM", RandomSummarizer),
        ],
    )
    def test_make_summarizer(self, name, expected_type):
        assert isinstance(make_summarizer(name), expected_type)

    def test_make_summarizer_forwards_kwargs(self):
        summarizer = make_summarizer("RANDOM", seed=5)
        assert isinstance(summarizer, RandomSummarizer)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_summarizer("DOES-NOT-EXIST")
