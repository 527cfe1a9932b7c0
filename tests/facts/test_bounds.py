"""Unit tests for repro.facts.bounds."""

import pytest

from repro.facts.bounds import bounds_for_groups, group_utility_bounds
from repro.facts.groups import FactGroup
from tests.algorithms.per_fact_greedy import incremental_gain
from tests.facts.test_generation_vectorized import by_group


class TestGroupBounds:
    def test_bound_structure(self, example_evaluator):
        bound = group_utility_bounds(example_evaluator, FactGroup(["region"]))
        assert bound.group == FactGroup(["region"])
        assert len(bound.per_scope) == 4
        assert bound.maximum == pytest.approx(60.0)
        assert bound.per_scope[("North",)] == pytest.approx(60.0)

    def test_bounds_upper_bound_fact_gains(self, example_evaluator, example_facts):
        state = example_evaluator.initial_state()
        for group, facts in by_group(example_facts).items():
            bound = group_utility_bounds(example_evaluator, group, state)
            for fact in facts:
                gain = incremental_gain(example_evaluator, fact, state)
                assert gain <= bound.maximum + 1e-9

    def test_bounds_shrink_after_applying_facts(self, example_evaluator, example_relation):
        group = FactGroup(["season"])
        before = group_utility_bounds(example_evaluator, group)
        state = example_evaluator.initial_state()
        winter = example_relation.make_fact({"season": "Winter"})
        example_evaluator.apply_fact(winter, state)
        after = group_utility_bounds(example_evaluator, group, state)
        assert after.maximum <= before.maximum
        assert after.per_scope[("Winter",)] == pytest.approx(0.0)

    def test_bounds_for_groups(self, example_evaluator):
        groups = [FactGroup(["region"]), FactGroup(["season"])]
        bounds = bounds_for_groups(example_evaluator, groups)
        assert set(bounds) == set(groups)
        assert all(b.maximum > 0 for b in bounds.values())

    def test_empty_group_bound_is_total_deviation(self, example_evaluator):
        bound = group_utility_bounds(example_evaluator, FactGroup([]))
        assert bound.maximum == pytest.approx(example_evaluator.prior_deviation())
