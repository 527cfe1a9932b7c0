"""Unit tests for the pruning cost model (Section VI-C)."""

import pytest

from repro.algorithms.cost_model import PruningPlan
from repro.facts.groups import FactGroup
from tests.algorithms import plan_oracle
from tests.algorithms.cost_oracle import (
    CostEstimator,
    PruningCostModel,
    TableStatistics,
    standard_normal_cdf,
)


@pytest.fixture()
def cost_model(example_relation):
    statistics = TableStatistics.from_table(example_relation.table)
    fact_counts = {
        FactGroup([]): 1,
        FactGroup(["region"]): 4,
        FactGroup(["season"]): 4,
        FactGroup(["region", "season"]): 16,
    }
    return PruningCostModel(fact_counts, CostEstimator(statistics), sigma=0.25)


ALL_GROUPS = [
    FactGroup([]),
    FactGroup(["region"]),
    FactGroup(["season"]),
    FactGroup(["region", "season"]),
]


class TestNormalCdf:
    def test_symmetry(self):
        assert standard_normal_cdf(0.0) == pytest.approx(0.5)
        assert standard_normal_cdf(2.0) + standard_normal_cdf(-2.0) == pytest.approx(1.0)

    def test_monotone(self):
        assert standard_normal_cdf(-1.0) < standard_normal_cdf(0.0) < standard_normal_cdf(1.0)


class TestProbabilities:
    def test_small_source_dominates_large_target(self, cost_model):
        small = FactGroup([])
        large = FactGroup(["region", "season"])
        assert cost_model.prune_probability(small, large) > 0.5
        assert cost_model.prune_probability(large, small) < 0.5

    def test_equal_groups_are_a_coin_flip(self, cost_model):
        region = FactGroup(["region"])
        season = FactGroup(["season"])
        assert cost_model.prune_probability(region, season) == pytest.approx(0.5)

    def test_target_prune_probability_combines_sources(self, cost_model):
        target = FactGroup(["region", "season"])
        one = plan_oracle.target_prune_probability(cost_model, target, [FactGroup([])])
        both = plan_oracle.target_prune_probability(
            cost_model, target, [FactGroup([]), FactGroup(["region"])]
        )
        assert both >= one
        assert plan_oracle.target_prune_probability(cost_model, target, []) == 0.0

    def test_group_survival_probability(self, cost_model):
        sources = [FactGroup([])]
        targets = [FactGroup(["region"])]
        survival_specialized = plan_oracle.group_survival_probability(
            cost_model, FactGroup(["region", "season"]), sources, targets
        )
        survival_unrelated = plan_oracle.group_survival_probability(
            cost_model, FactGroup(["season"]), sources, targets
        )
        # The specialization of a target can be pruned; an unrelated group cannot.
        assert survival_specialized < 1.0
        assert survival_unrelated == pytest.approx(1.0)


class TestPlanCost:
    def test_trivial_plan_cost_is_total_utility_cost(self, cost_model):
        plan = PruningPlan((), ())
        expected = sum(cost_model.utility_cost(g) for g in ALL_GROUPS)
        assert plan_oracle.plan_cost(cost_model, plan, ALL_GROUPS) == pytest.approx(expected)

    def test_effective_pruning_reduces_expected_cost(self, cost_model):
        """Only under the paper's formula, which skips a pruned group's
        gains; the one-pass kernel computes them, so the plan costs the
        trivial plan's cost plus its target's C_D."""
        trivial = PruningPlan((), ())
        pruning = PruningPlan(
            sources=(FactGroup([]),),
            targets=(FactGroup(["region", "season"]),),
        )
        assert plan_oracle.paper_plan_cost(
            cost_model, pruning, ALL_GROUPS
        ) < plan_oracle.paper_plan_cost(cost_model, trivial, ALL_GROUPS)
        trivial_cost = plan_oracle.plan_cost(cost_model, trivial, ALL_GROUPS)
        target_cost = cost_model.deviation_cost(FactGroup(["region", "season"]))
        assert target_cost > 0
        assert plan_oracle.plan_cost(cost_model, pruning, ALL_GROUPS) == trivial_cost + target_cost

    def test_fact_count_falls_back_to_estimator(self, example_relation):
        statistics = TableStatistics.from_table(example_relation.table)
        model = PruningCostModel({}, CostEstimator(statistics))
        assert model.fact_count(FactGroup(["region"])) == 4

    def test_invalid_sigma_rejected(self, example_relation):
        statistics = TableStatistics.from_table(example_relation.table)
        with pytest.raises(ValueError):
            PruningCostModel({}, CostEstimator(statistics), sigma=0.0)

    def test_plan_repr(self):
        assert repr(PruningPlan((), ())) == "PruningPlan(sources=[<none>], targets=[<none>])"
        plan = PruningPlan((FactGroup(["a"]),), (FactGroup(["b"]),))
        assert "a" in repr(plan)
