"""Unit tests for the utility evaluator (repro.core.utility).

The expected numbers are derived from the conftest fixture data:
16 rows, delays of 15 (7 rows: the North column and the Winter row),
20 (1 row: South/Summer) and 10 (8 remaining rows).  With the zero
prior, the prior deviation is 7*15 + 1*20 + 8*10 = 205.
"""

import numpy as np
import pytest

from repro.core.expectation import AverageOfScopeFactsModel
from repro.core.model import Fact, Scope, Speech
from repro.core.priors import ConstantPrior, ZeroPrior
from repro.core.utility import UtilityEvaluator
from tests.algorithms.per_fact_greedy import incremental_gain


def _fact(assignments, value, support=4):
    return Fact(scope=Scope(assignments), value=value, support=support)


WINTER = _fact({"season": "Winter"}, 15.0)
NORTH = _fact({"region": "North"}, 15.0)
SOUTH_SUMMER = _fact({"region": "South", "season": "Summer"}, 20.0, support=1)


class TestDeviationAndUtility:
    def test_prior_deviation(self, example_evaluator):
        assert example_evaluator.prior_deviation() == pytest.approx(205.0)

    def test_single_fact_deviation(self, example_evaluator):
        # The Winter fact zeroes the deviation of its 4 rows (all 15s).
        assert example_evaluator.deviation([WINTER]) == pytest.approx(205.0 - 60.0)
        assert example_evaluator.utility([WINTER]) == pytest.approx(60.0)

    def test_two_fact_utility(self, example_evaluator):
        # Winter and North together zero all seven 15-rows.
        assert example_evaluator.utility([WINTER, NORTH]) == pytest.approx(105.0)

    def test_speech_input_accepted(self, example_evaluator):
        speech = Speech([WINTER, NORTH])
        assert example_evaluator.utility(speech) == pytest.approx(105.0)

    def test_scaled_utility(self, example_evaluator):
        assert example_evaluator.scaled_utility([WINTER]) == pytest.approx(60.0 / 205.0)

    def test_scaled_utility_with_zero_prior_deviation(self):
        # A prior that matches the data exactly leaves nothing to improve;
        # the convention is a scaled utility of 1.0.
        from repro.relational.column import Column
        from repro.relational.table import Table
        from repro.core.model import SummarizationRelation

        table = Table(
            "const",
            [Column.categorical("d", ["a", "b"]), Column.numeric("v", [5.0, 5.0])],
        )
        relation = SummarizationRelation(table, ["d"], "v")
        exact_prior = UtilityEvaluator(relation, prior=ConstantPrior(5.0))
        assert exact_prior.prior_deviation() == 0.0
        assert exact_prior.scaled_utility([]) == 1.0

    def test_utility_of_empty_fact_set_is_zero(self, example_evaluator):
        assert example_evaluator.utility([]) == pytest.approx(0.0)

    def test_expectations_shape(self, example_evaluator, example_relation):
        expected = example_evaluator.expectations([WINTER])
        assert expected.shape == (example_relation.num_rows,)

    def test_alternative_expectation_model(self, example_relation):
        evaluator = UtilityEvaluator(
            example_relation,
            prior=ZeroPrior(),
            expectation_model=AverageOfScopeFactsModel(),
        )
        # Under the averaging model the overlap row expects (15+15)/2 = 15 too,
        # so utility of the two facts is identical here; the model is simply
        # exercised end to end.
        assert evaluator.utility([WINTER, NORTH]) == pytest.approx(105.0)


class TestSingleFactUtility:
    """A single-fact utility is the fact's gain over the empty speech."""

    def test_matches_full_evaluation(self, example_evaluator):
        prior = example_evaluator.initial_state()
        for fact in (WINTER, NORTH, SOUTH_SUMMER):
            assert incremental_gain(example_evaluator, fact, prior) == pytest.approx(
                example_evaluator.utility([fact])
            )

    def test_several_facts(self, example_evaluator):
        prior = example_evaluator.initial_state()
        utilities = [incremental_gain(example_evaluator, f, prior) for f in (WINTER, NORTH)]
        assert utilities == [
            pytest.approx(60.0),
            pytest.approx(60.0),
        ]

    def test_empty_scope_fact(self, example_evaluator):
        ghost = _fact({"region": "Atlantis"}, 5.0, support=0)
        assert incremental_gain(example_evaluator, ghost, example_evaluator.initial_state()) == 0.0


class TestIncrementalState:
    def test_initial_state_matches_prior(self, example_evaluator):
        state = example_evaluator.initial_state()
        assert float(state.error.sum()) == pytest.approx(205.0)
        assert np.all(state.expected == 0.0)

    def test_incremental_gain_matches_single_fact_utility(self, example_evaluator):
        state = example_evaluator.initial_state()
        assert incremental_gain(example_evaluator, WINTER, state) == pytest.approx(60.0)

    def test_apply_fact_updates_state(self, example_evaluator):
        state = example_evaluator.initial_state()
        gain = example_evaluator.apply_fact(WINTER, state)
        assert gain == pytest.approx(60.0)
        assert float(state.error.sum()) == pytest.approx(145.0)
        # Re-applying the same fact yields no further gain.
        assert example_evaluator.apply_fact(WINTER, state) == pytest.approx(0.0)

    def test_gain_shrinks_after_overlapping_fact(self, example_evaluator):
        state = example_evaluator.initial_state()
        example_evaluator.apply_fact(WINTER, state)
        # North overlaps Winter in one row; its gain drops from 60 to 45.
        assert incremental_gain(example_evaluator, NORTH, state) == pytest.approx(45.0)

    def test_state_copy_is_independent(self, example_evaluator):
        state = example_evaluator.initial_state()
        clone = state.copy()
        example_evaluator.apply_fact(WINTER, state)
        assert float(clone.error.sum()) == pytest.approx(205.0)

    def test_incremental_matches_full_recomputation(self, example_evaluator):
        state = example_evaluator.initial_state()
        applied = []
        for fact in (NORTH, SOUTH_SUMMER, WINTER):
            example_evaluator.apply_fact(fact, state)
            applied.append(fact)
            assert float(state.error.sum()) == pytest.approx(example_evaluator.deviation(applied))


class TestValidation:
    def test_mismatched_prior_length_rejected(self, example_relation):
        class BrokenPrior(ZeroPrior):
            def values(self, relation):
                return np.zeros(3)

        with pytest.raises(ValueError):
            UtilityEvaluator(example_relation, prior=BrokenPrior())
