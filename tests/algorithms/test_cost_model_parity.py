"""The memoized pruning cost model is bit-equal to the unmemoized formulas.

:class:`PruningCostModel` memoizes M(g), C_U, C_D and Pr(P_{s→t}) per
instance.  A test-local reference recomputes every component on each
call, exactly as written in Section VI-C; on random group sets both must
choose the same plan with bit-equal plan costs.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cost_model import PruningCostModel, PruningPlan, _standard_normal_cdf
from repro.algorithms.plan_optimizer import PruningPlanOptimizer, generate_candidate_plans
from repro.facts.groups import FactGroup, enumerate_fact_groups
from repro.relational.catalog import TableStatistics
from repro.relational.planner import CostEstimator

DIMENSIONS = ("a", "b", "c", "d", "e")


class ReferenceCostModel(PruningCostModel):
    """Every component recomputed on every call (no memoization)."""

    def fact_count(self, group: FactGroup) -> int:
        return max(1, self._fact_counts.get(group, self._estimator.fact_count(group.dimensions)))

    def utility_cost(self, group: FactGroup) -> float:
        return float(self._estimator.utility_cost(group.dimensions))

    def deviation_cost(self, group: FactGroup) -> float:
        return float(self._estimator.deviation_cost(group.dimensions))

    def prune_probability(self, source: FactGroup, target: FactGroup) -> float:
        mean_source = 1.0 / self.fact_count(source)
        mean_target = 1.0 / self.fact_count(target)
        z = (mean_source - mean_target) / (self._sigma * math.sqrt(2.0))
        return _standard_normal_cdf(z)


class CountingEstimator(CostEstimator):
    """Counts the estimator's M(g) fallbacks per group."""

    def __init__(self, statistics: TableStatistics):
        super().__init__(statistics)
        self.fact_count_calls: dict[tuple[str, ...], int] = {}

    def fact_count(self, group_columns):
        key = tuple(group_columns)
        self.fact_count_calls[key] = self.fact_count_calls.get(key, 0) + 1
        return super().fact_count(group_columns)


ALL_GROUPS = enumerate_fact_groups(DIMENSIONS, max_arity=3, include_empty=True)


@st.composite
def problems(draw):
    """Random groups, fact counts (some missing) and table statistics."""
    groups = draw(st.lists(st.sampled_from(ALL_GROUPS), min_size=1, max_size=14, unique=True))
    counted = draw(st.lists(st.sampled_from(groups), unique=True, max_size=len(groups)))
    fact_counts = {
        group: draw(st.integers(min_value=0, max_value=60)) for group in counted
    }
    statistics = TableStatistics(
        row_count=draw(st.integers(min_value=0, max_value=5000)),
        distinct_counts={
            dim: draw(st.integers(min_value=0, max_value=40)) for dim in DIMENSIONS
        },
    )
    sigma = draw(st.sampled_from([0.05, 0.25, 1.0, 3.0]))
    return groups, fact_counts, statistics, sigma


@settings(max_examples=120, deadline=None)
@given(problem=problems(), max_source_prefix=st.sampled_from([None, 1, 4]))
def test_memoized_model_chooses_the_reference_plan(problem, max_source_prefix):
    groups, fact_counts, statistics, sigma = problem
    memoized = PruningCostModel(fact_counts, CostEstimator(statistics), sigma=sigma)
    reference = ReferenceCostModel(fact_counts, CostEstimator(statistics), sigma=sigma)

    chosen = PruningPlanOptimizer(memoized, max_source_prefix).choose_plan(groups, fact_counts)
    expected = PruningPlanOptimizer(reference, max_source_prefix).choose_plan(groups, fact_counts)
    assert chosen == expected
    assert memoized.plan_cost(chosen, groups) == reference.plan_cost(expected, groups)

    naive = PruningPlanOptimizer(memoized).naive_plan(groups, fact_counts)
    assert naive == PruningPlanOptimizer(reference).naive_plan(groups, fact_counts)

    plans = generate_candidate_plans(groups, fact_counts, memoized, max_source_prefix)
    assert plans == generate_candidate_plans(groups, fact_counts, reference, max_source_prefix)
    for plan in plans + [naive, PruningPlan((), ())]:
        assert memoized.plan_cost(plan, groups) == reference.plan_cost(plan, groups)


def test_estimator_fallback_runs_only_for_missing_groups_and_once():
    statistics = TableStatistics(row_count=100, distinct_counts={"a": 4, "b": 5})
    estimator = CountingEstimator(statistics)
    known, missing = FactGroup(["a"]), FactGroup(["a", "b"])
    model = PruningCostModel({known: 0}, estimator)
    for _ in range(3):
        assert model.fact_count(known) == 1
        assert model.fact_count(missing) == 20
        model.prune_probability(known, missing)
    assert estimator.fact_count_calls == {("a", "b"): 1}
