"""Unit tests for the greedy summarizer (Algorithm 2)."""

import pytest

from repro.algorithms.greedy import GreedySummarizer
from repro.core.model import Speech, SummarizationRelation
from repro.core.priors import ConstantPrior, ZeroPrior
from repro.core.problem import SummarizationProblem
from repro.relational.column import Column
from repro.relational.table import Table
from tests.algorithms.per_fact_greedy import incremental_gain


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
