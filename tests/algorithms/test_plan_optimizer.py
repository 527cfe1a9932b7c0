"""Unit tests for the pruning plan optimizer (Algorithm 4 + OPT_PRUNE)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cost_model import LatticeCosts, PruningPlan, lattice_costs
from repro.algorithms.plan_optimizer import choose_plan, naive_plan
from repro.facts.groups import FactGroup, GroupLattice
from tests.algorithms.cost_oracle import CostEstimator, PruningCostModel, TableStatistics
from tests.algorithms.plan_candidates import candidate_plans
from tests.algorithms import plan_oracle

GROUPS = [
    FactGroup([]),
    FactGroup(["region"]),
    FactGroup(["season"]),
    FactGroup(["region", "season"]),
]
FACT_COUNTS = {
    FactGroup([]): 1,
    FactGroup(["region"]): 4,
    FactGroup(["season"]): 4,
    FactGroup(["region", "season"]): 16,
}


def costed_candidates(groups, cost_model, max_source_prefix=None):
    lattice = GroupLattice(groups)
    costs = plan_oracle.model_costs(cost_model, lattice, FACT_COUNTS)
    return candidate_plans(lattice, costs, cost_model.sigma, max_source_prefix)


def generate_candidate_plans(groups, cost_model, max_source_prefix=None):
    return [plan for plan, _ in costed_candidates(groups, cost_model, max_source_prefix)]


def naive(groups, cost_model):
    lattice = GroupLattice(groups)
    return naive_plan(lattice, plan_oracle.model_costs(cost_model, lattice, FACT_COUNTS), cost_model.sigma)


@pytest.fixture()
def cost_model(example_relation):
    statistics = TableStatistics.from_table(example_relation.table)
    return PruningCostModel(FACT_COUNTS, CostEstimator(statistics))


class TestCandidateGeneration:
    def test_always_includes_trivial_plan(self, cost_model):
        plans = generate_candidate_plans(GROUPS, cost_model)
        assert PruningPlan((), ()) in plans

    def test_sources_are_prefixes_by_fact_count(self, cost_model):
        plans = generate_candidate_plans(GROUPS, cost_model)
        for plan in plans:
            if not plan.sources:
                continue
            source_counts = [FACT_COUNTS[s] for s in plan.sources]
            outside = [FACT_COUNTS[g] for g in GROUPS if g not in plan.sources]
            # No group outside the sources has fewer facts than a source.
            assert not outside or max(source_counts) <= min(outside)

    def test_targets_never_overlap_sources(self, cost_model):
        plans = generate_candidate_plans(GROUPS, cost_model)
        for plan in plans:
            assert not set(plan.sources) & set(plan.targets)

    def test_single_group_yields_only_trivial_plan(self, cost_model):
        plans = generate_candidate_plans([FactGroup([])], cost_model)
        assert plans == [PruningPlan((), ())]

    def test_max_source_prefix_limits_plans(self, cost_model):
        few = generate_candidate_plans(GROUPS, cost_model, max_source_prefix=1)
        many = generate_candidate_plans(GROUPS, cost_model, max_source_prefix=3)
        assert len(few) <= len(many)


class TestOptimizer:
    def test_chooses_minimum_cost_candidate(self, cost_model):
        chosen = choose_plan()
        candidates = costed_candidates(GROUPS, cost_model, 4)
        best_cost = min(cost for _, cost in candidates)
        assert plan_oracle.plan_cost(cost_model, chosen, GROUPS) == best_cost
        assert chosen == next(plan for plan, cost in candidates if cost == best_cost)

    def test_naive_plan_uses_smallest_group_as_source(self, cost_model):
        plan = naive(GROUPS, cost_model)
        assert plan.sources == (FactGroup([]),)
        assert set(plan.targets) == set(GROUPS) - {FactGroup([])}

    def test_naive_plan_with_single_group_is_trivial(self, cost_model):
        # Nothing to prune: the one group is the source, with no targets.
        assert naive([FactGroup([])], cost_model).targets == ()

    def test_chosen_plan_never_worse_than_trivial(self, cost_model):
        chosen = choose_plan()
        trivial_cost = plan_oracle.plan_cost(cost_model, PruningPlan((), ()), GROUPS)
        assert plan_oracle.plan_cost(cost_model, chosen, GROUPS) <= trivial_cost + 1e-9


# ----------------------------------------------------------------------
# choose_plan prices nothing: the trivial plan is the first cheapest
# ----------------------------------------------------------------------
_DIMENSIONS = ["a", "b", "c", "d", "e"]
_GROUP_SETS = st.lists(
    st.frozensets(st.sampled_from(_DIMENSIONS), max_size=3), min_size=1, max_size=12, unique=True
)
# Non-negative, non-integer components: their sums round, unlike the
# integer-valued costs of lattice_costs.
_COMPONENT = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _plan_inputs(draw):
    lattice = GroupLattice(FactGroup(sorted(columns)) for columns in draw(_GROUP_SETS))
    counts = draw(st.lists(st.integers(0, 6), min_size=lattice.size, max_size=lattice.size))
    if draw(st.booleans()):
        rows = draw(st.integers(1, 5000))
        distinct = {dim: draw(st.integers(0, 50)) for dim in _DIMENSIONS}
        costs = lattice_costs(lattice, counts, rows, distinct)
    else:
        size = lattice.size
        costs = LatticeCosts(
            counts,
            draw(st.lists(_COMPONENT, min_size=size, max_size=size)),
            draw(st.lists(_COMPONENT, min_size=size, max_size=size)),
            [1.0 / max(1, count) for count in counts],
        )
    sigma = draw(st.floats(min_value=0.01, max_value=10.0))
    cap = draw(st.sampled_from([1, 2, 4, None]))
    return lattice, costs, sigma, cap


@settings(max_examples=400, deadline=None)
@given(_plan_inputs())
def test_choose_plan_is_the_first_cheapest_candidate(inputs):
    """Each candidate costs the trivial plan's cost plus its targets' C_D,
    so the trivial plan, listed first, is the first cheapest."""
    lattice, costs, sigma, cap = inputs
    candidates = candidate_plans(lattice, costs, sigma, cap)
    first_cheapest = min(candidates, key=lambda candidate: candidate[1])[0]
    assert choose_plan() == first_cheapest == PruningPlan((), ())
    trivial_cost = candidates[0][1]
    for plan, cost in candidates:
        expected = trivial_cost
        for target in plan.targets:
            expected += costs.deviation[lattice.ids[target]]
        assert cost == expected >= trivial_cost
