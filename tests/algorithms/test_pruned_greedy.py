"""Unit tests for the pruned greedy summarizers (G-P and G-O)."""

import pytest

from repro.algorithms.greedy import GreedySummarizer
from repro.algorithms.pruned_greedy import OptimizedGreedySummarizer, PrunedGreedySummarizer
from repro.algorithms.registry import make_summarizer
from tests.algorithms.cost_oracle import CostEstimator, PruningCostModel, TableStatistics


class TestQualityEquivalence:
    """Both pruned variants must return speeches of the same quality as G-B:
    pruning only skips facts that provably cannot have maximal gain."""

    def test_gp_matches_greedy_utility(self, example_problem):
        base = GreedySummarizer().summarize(example_problem)
        pruned = PrunedGreedySummarizer().summarize(example_problem)
        assert pruned.utility == pytest.approx(base.utility)

    def test_go_matches_greedy_utility(self, example_problem):
        base = GreedySummarizer().summarize(example_problem)
        optimized = OptimizedGreedySummarizer().summarize(example_problem)
        assert optimized.utility == pytest.approx(base.utility)

    def test_two_fact_problem(self, small_problem):
        base = GreedySummarizer().summarize(small_problem)
        for algorithm in (PrunedGreedySummarizer(), OptimizedGreedySummarizer()):
            assert algorithm.summarize(small_problem).utility == pytest.approx(base.utility)


class TestWorkAccounting:
    def test_pruning_never_increases_gain_evaluations(self, example_problem):
        base = GreedySummarizer().summarize(example_problem)
        for algorithm in (PrunedGreedySummarizer(), OptimizedGreedySummarizer()):
            outcome = algorithm.summarize(example_problem)
            assert (
                outcome.statistics.fact_evaluations
                <= base.statistics.fact_evaluations
            )

    def test_names(self, small_problem):
        assert PrunedGreedySummarizer().summarize(small_problem).algorithm == "G-P"
        assert OptimizedGreedySummarizer().summarize(small_problem).algorithm == "G-O"

    def test_speech_length_respected(self, example_problem):
        for algorithm in (PrunedGreedySummarizer(), OptimizedGreedySummarizer()):
            outcome = algorithm.summarize(example_problem)
            assert outcome.speech.length <= example_problem.max_facts
            assert len(set(outcome.speech.facts)) == outcome.speech.length

    def test_statistics_have_time(self, example_problem):
        outcome = OptimizedGreedySummarizer().summarize(example_problem)
        assert outcome.statistics.elapsed_seconds > 0


BAD_SIGMAS = [float("nan"), float("inf"), 0.0, -1.0]


class TestSigmaValidation:
    """A NaN or infinite σ silently pruned nothing (G-O did G-B's work);
    a zero or negative one failed only at the first summarize, in a pool
    worker far from the caller.  Both are rejected at construction."""

    @pytest.mark.parametrize("name", ["G-P", "G-O"])
    @pytest.mark.parametrize("sigma", BAD_SIGMAS)
    def test_summarizer_rejects_sigma(self, name, sigma):
        with pytest.raises(ValueError, match="sigma"):
            make_summarizer(name, sigma=sigma)

    @pytest.mark.parametrize("sigma", BAD_SIGMAS)
    def test_cost_model_rejects_sigma(self, example_relation, sigma):
        statistics = TableStatistics.from_table(example_relation.table)
        with pytest.raises(ValueError, match="sigma"):
            PruningCostModel({}, CostEstimator(statistics), sigma=sigma)

    def test_positive_finite_sigma_prunes(self, example_problem):
        result = make_summarizer("G-P", sigma=1).summarize(example_problem)
        reference = PrunedGreedySummarizer(sigma=1.0).summarize(example_problem)
        assert result.speech == reference.speech
        assert result.statistics.groups_pruned > 0
