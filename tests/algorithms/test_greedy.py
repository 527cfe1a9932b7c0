"""Unit tests for the greedy summarizer (Algorithm 2)."""

import pytest

from repro.algorithms.greedy import GreedySummarizer
from repro.algorithms.registry import make_summarizer
from repro.core.model import Speech, SummarizationRelation
from repro.core.priors import ConstantPrior, ZeroPrior
from repro.core.problem import SummarizationProblem
from repro.relational.column import Column
from repro.relational.table import Table
from tests.algorithms.per_fact_greedy import PerFactGreedySummarizer, incremental_gain
from tests.core.test_kernel import random_problem


class TestGreedySelection:
    def test_respects_speech_length(self, example_problem):
        result = GreedySummarizer().summarize(example_problem)
        assert result.speech.length <= example_problem.max_facts
        assert result.algorithm == "G-B"

    def test_first_fact_has_maximal_single_fact_utility(self, small_problem):
        evaluator = small_problem.evaluator()
        prior = evaluator.initial_state()
        best_single = max(
            incremental_gain(evaluator, f, prior) for f in small_problem.candidate_facts
        )
        result = GreedySummarizer().summarize(small_problem)
        chosen_first_utilities = [
            incremental_gain(evaluator, f, prior) for f in result.speech.facts
        ]
        assert max(chosen_first_utilities) == pytest.approx(best_single)

    def test_two_fact_speech_on_example(self, small_problem):
        """On the fixture data the best 2-fact speech combines the overall
        average (utility 160) with one of the 15-minute facts (+8.75)."""
        result = GreedySummarizer().summarize(small_problem)
        assert result.utility == pytest.approx(168.75)

    def test_utility_matches_evaluator(self, example_problem):
        result = GreedySummarizer().summarize(example_problem)
        evaluator = example_problem.evaluator()
        # Bit-equal: summarize divides its utility by the prior deviation
        # instead of asking the evaluator for the deviation twice.
        assert result.utility == evaluator.utility(result.speech)
        assert result.scaled_utility == evaluator.scaled_utility(result.speech)

    def test_scaled_utility_is_one_without_prior_deviation(self):
        table = Table(
            "flat",
            [Column.categorical("d", ["x", "y"]), Column.numeric("v", [10.0, 10.0])],
        )
        relation = SummarizationRelation(table, ["d"], "v")
        problem = SummarizationProblem(
            relation=relation,
            candidate_facts=[relation.make_fact({"d": "x"})],
            max_facts=1,
            prior=ConstantPrior(10.0),
        )
        assert problem.evaluator().prior_deviation() == 0.0
        assert GreedySummarizer().summarize(problem).scaled_utility == 1.0

    def test_does_not_select_duplicate_facts(self, example_problem):
        result = GreedySummarizer().summarize(example_problem)
        assert len(set(result.speech.facts)) == result.speech.length

    def test_early_stop_when_no_gain(self, example_relation):
        # A single useful fact plus the request for three facts: the greedy
        # loop stops once no remaining fact improves utility.
        facts = [
            example_relation.make_fact({"season": "Winter"}),
            example_relation.make_fact({"season": "Winter"}),  # duplicate
        ]
        problem = SummarizationProblem(
            relation=example_relation,
            candidate_facts=facts,
            max_facts=3,
            prior=ZeroPrior(),
        )
        result = GreedySummarizer().summarize(problem)
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
        result = GreedySummarizer(allow_early_stop=False).summarize(problem)
        assert result.speech.length == 2

    def test_statistics_recorded(self, example_problem):
        result = GreedySummarizer().summarize(example_problem)
        stats = result.statistics
        assert stats.elapsed_seconds > 0
        # One gain evaluation per candidate per iteration (minus chosen facts).
        assert stats.fact_evaluations >= len(example_problem.candidate_facts)
        assert stats.speeches_considered == result.speech.length

    def test_more_facts_never_hurt(self, example_relation, example_facts):
        utilities = []
        for m in (1, 2, 3, 4):
            problem = SummarizationProblem(
                relation=example_relation,
                candidate_facts=example_facts.facts,
                max_facts=m,
                prior=ZeroPrior(),
            )
            utilities.append(GreedySummarizer().summarize(problem).utility)
        assert utilities == sorted(utilities)

    def test_problem_label_propagated(self, example_problem):
        assert GreedySummarizer().summarize(example_problem).problem_label == "running example"

    def test_single_candidate(self, example_relation):
        fact = example_relation.make_fact({"region": "North"})
        problem = SummarizationProblem(
            relation=example_relation,
            candidate_facts=[fact],
            max_facts=3,
            prior=ZeroPrior(),
        )
        result = GreedySummarizer().summarize(problem)
        assert result.speech == Speech([fact])


class TestKernelMatchesPerFactOracle:
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

    def test_fact_evaluations_on_a_fixed_problem(self):
        """Exact work on one fixed problem: G-B and the per-fact oracle
        evaluate every remaining candidate in each of the four steps
        (60 + 59 + 58 + 57).  A G-B that evaluates more or fewer facts
        changes the count."""
        problem = random_problem(11, max_facts=4)
        assert len(problem.candidate_facts) == 60
        kernel = GreedySummarizer().summarize(problem)
        reference = PerFactGreedySummarizer().summarize(problem)
        assert kernel.speech == reference.speech
        assert kernel.statistics.fact_evaluations == 234
        assert reference.statistics.fact_evaluations == 234


class TestPrunedVariantsFollowGreedy:
    """G-P and G-O run Algorithm 2 with G-B's selection rule, so on the
    random problems above they pick G-B's facts in G-B's order, stop
    where G-B stops, and consume no more gains than G-B."""

    @staticmethod
    def _assert_follows_greedy(problem, name):
        base = GreedySummarizer().summarize(problem)
        result = make_summarizer(name).summarize(problem)
        assert result.algorithm == name
        assert result.speech.facts == base.speech.facts
        assert result.utility.hex() == base.utility.hex()
        assert result.statistics.speeches_considered == base.statistics.speeches_considered
        assert result.statistics.fact_evaluations <= base.statistics.fact_evaluations

    @pytest.mark.parametrize("name", ["G-P", "G-O"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_four_fact_speeches(self, seed, name):
        self._assert_follows_greedy(random_problem(seed, max_facts=4), name)

    @pytest.mark.parametrize("name", ["G-P", "G-O"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_stop_once_no_gain_is_left(self, seed, name):
        """Gains reach zero after ~40 of the 60 candidates: every
        variant stops at the same step, before ``max_facts``."""
        problem = random_problem(seed, max_facts=60)
        self._assert_follows_greedy(problem, name)
        assert GreedySummarizer().summarize(problem).speech.length < problem.max_facts

    @pytest.mark.parametrize("name", ["G-P", "G-O"])
    def test_duplicate_fact_is_chosen_once(self, example_relation, name):
        winter = {"season": "Winter"}
        problem = SummarizationProblem(
            relation=example_relation,
            candidate_facts=[example_relation.make_fact(winter)] * 2,
            max_facts=3,
            prior=ZeroPrior(),
        )
        result = make_summarizer(name).summarize(problem)
        assert result.speech == Speech([example_relation.make_fact(winter)])

    @pytest.mark.parametrize("name", ["G-P", "G-O"])
    def test_utility_matches_evaluator(self, example_problem, name):
        result = make_summarizer(name).summarize(example_problem)
        evaluator = example_problem.evaluator()
        assert result.utility == evaluator.utility(result.speech)
        assert result.scaled_utility == evaluator.scaled_utility(result.speech)
