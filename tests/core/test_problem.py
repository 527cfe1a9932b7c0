"""Unit tests for SummarizationProblem (repro.core.problem)."""

import pytest

from repro.core.errors import InvalidProblemError
from repro.core.expectation import AverageOfAllFactsModel, ClosestRelevantFactModel
from repro.core.priors import GlobalAveragePrior, ZeroPrior
from repro.core.problem import SummarizationProblem


class TestConstruction:
    def test_defaults(self, example_relation, example_facts):
        problem = SummarizationProblem(
            relation=example_relation,
            candidate_facts=example_facts.facts,
            max_facts=3,
        )
        assert isinstance(problem.prior, GlobalAveragePrior)
        assert isinstance(problem.expectation_model, ClosestRelevantFactModel)
        assert problem.num_candidates == len(example_facts.facts)
        assert problem.num_rows == 16
        assert problem.label == ""

    def test_invalid_max_facts(self, example_relation, example_facts):
        with pytest.raises(InvalidProblemError):
            SummarizationProblem(example_relation, example_facts.facts, max_facts=0)

    def test_requires_candidates(self, example_relation):
        with pytest.raises(InvalidProblemError):
            SummarizationProblem(example_relation, [], max_facts=2)

    def test_scope_index_must_match_candidates(self, example_relation, example_facts):
        index = example_facts.scope_index(example_relation)
        with pytest.raises(InvalidProblemError):
            SummarizationProblem(
                example_relation, example_facts.facts[1:], max_facts=2, scope_index=index
            )


class TestScopeIndex:
    def test_hand_built_problem_builds_its_index_once(self, example_problem):
        index = example_problem.index()
        assert index.facts == list(example_problem.candidate_facts)
        assert example_problem.index() is index

    def test_seeded_index_is_used(self, example_relation, example_facts):
        index = example_facts.scope_index(example_relation)
        problem = SummarizationProblem(
            example_relation, example_facts.facts, max_facts=2, scope_index=index
        )
        assert problem.index() is index


class TestEvaluatorFactory:
    def test_evaluator_uses_configured_prior_and_model(self, example_relation, example_facts):
        problem = SummarizationProblem(
            relation=example_relation,
            candidate_facts=example_facts.facts,
            max_facts=2,
            prior=ZeroPrior(),
            expectation_model=AverageOfAllFactsModel(),
        )
        evaluator = problem.evaluator()
        assert evaluator.prior is problem.prior
        assert evaluator.expectation_model is problem.expectation_model
        assert evaluator.prior_deviation() == pytest.approx(205.0)

    def test_fresh_evaluator_per_call(self, example_problem):
        assert example_problem.evaluator() is not example_problem.evaluator()
